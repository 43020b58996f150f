/**
 * @file
 * Unit tests for the mesh NoC: routing distances, latency model,
 * contention serialization and traffic accounting.
 */

#include <gtest/gtest.h>

#include "noc/Mesh.hh"

namespace spmcoh
{
namespace
{

MeshParams
params8x8()
{
    return MeshParams{};
}

TEST(Mesh, HopCounts)
{
    Mesh m(params8x8());
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 7), 7u);       // same row
    EXPECT_EQ(m.hops(0, 56), 7u);      // same column
    EXPECT_EQ(m.hops(0, 63), 14u);     // corner to corner
    EXPECT_EQ(m.hops(9, 18), 2u);      // (1,1) -> (2,2)
}

TEST(Mesh, RouteLatencyScalesWithDistance)
{
    Mesh m(params8x8());
    const Tick near = m.routeLatency(0, 1, ctrlPacketBytes);
    const Tick far = m.routeLatency(0, 63, ctrlPacketBytes);
    EXPECT_GT(far, near);
    // 14 hops x (router+link) + final router = 29 for a 1-flit pkt.
    EXPECT_EQ(far, 29u);
}

TEST(Mesh, DataPacketsSerializeMoreFlits)
{
    Mesh m(params8x8());
    const Tick ctrl = m.routeLatency(0, 1, ctrlPacketBytes);
    const Tick data = m.routeLatency(0, 1, dataPacketBytes);
    // 72B / 16B = 5 flits -> 4 extra serialization cycles.
    EXPECT_EQ(data, ctrl + 4);
}

TEST(Mesh, DeliveryEventFires)
{
    EventQueue eq;
    Mesh m(params8x8());
    bool arrived = false;
    Tick t = m.send(eq, 0, 63, TrafficClass::Read, ctrlPacketBytes,
                    [&] { arrived = true; });
    EXPECT_GT(t, 0u);
    eq.run();
    EXPECT_TRUE(arrived);
    EXPECT_EQ(eq.now(), t);
}

TEST(Mesh, ContentionDelaysBackToBackPackets)
{
    EventQueue eq;
    Mesh m(params8x8());
    // Two data packets on the same link at the same time: the second
    // is pushed back by serialization.
    const Tick t1 = m.send(eq, 0, 1, TrafficClass::Read,
                           dataPacketBytes, nullptr);
    const Tick t2 = m.send(eq, 0, 1, TrafficClass::Read,
                           dataPacketBytes, nullptr);
    EXPECT_GT(t2, t1);
    eq.run();
}

TEST(Mesh, PointToPointOrderAcrossPacketSizes)
{
    EventQueue eq;
    Mesh m(MeshParams{});
    // A large data packet followed by a small control packet on the
    // same (src, dst) pair: the control packet must not overtake it.
    const Tick t_data = m.send(eq, 0, 63, TrafficClass::WbRepl,
                               dataPacketBytes, nullptr);
    const Tick t_ctrl = m.send(eq, 0, 63, TrafficClass::Write,
                               ctrlPacketBytes, nullptr);
    EXPECT_GT(t_ctrl, t_data);
    eq.run();
}

TEST(Mesh, TrafficCountersPerClass)
{
    EventQueue eq;
    Mesh m(params8x8());
    m.send(eq, 0, 5, TrafficClass::Read, ctrlPacketBytes, nullptr);
    m.send(eq, 0, 5, TrafficClass::Read, dataPacketBytes, nullptr);
    m.send(eq, 3, 9, TrafficClass::Dma, dataPacketBytes, nullptr);
    m.account(1, 2, TrafficClass::CohProt, ctrlPacketBytes);
    eq.run();
    const TrafficCounters &tc = m.traffic();
    EXPECT_EQ(tc.classPackets(TrafficClass::Read), 2u);
    EXPECT_EQ(tc.classPackets(TrafficClass::Dma), 1u);
    EXPECT_EQ(tc.classPackets(TrafficClass::CohProt), 1u);
    EXPECT_EQ(tc.totalPackets(), 4u);
    EXPECT_GT(tc.flitHops, 0u);
}

TEST(Mesh, AccountOnlyDoesNotSchedule)
{
    Mesh m(params8x8());
    m.account(0, 63, TrafficClass::CohProt, ctrlPacketBytes);
    EXPECT_EQ(m.traffic().totalPackets(), 1u);
}

TEST(Mesh, MaxLatencyFromCornerIsWorstCase)
{
    Mesh m(params8x8());
    EXPECT_EQ(m.maxLatencyFrom(0, ctrlPacketBytes),
              m.routeLatency(0, 63, ctrlPacketBytes));
    // From the center the worst case is nearer.
    EXPECT_LT(m.maxLatencyFrom(27, ctrlPacketBytes),
              m.maxLatencyFrom(0, ctrlPacketBytes));
}

TEST(Mesh, LocalDeliveryStillCostsARouter)
{
    Mesh m(params8x8());
    EXPECT_EQ(m.routeLatency(5, 5, ctrlPacketBytes), 1u);
}

TEST(Mesh, LocalAccountingChargesNoLinkFlits)
{
    EventQueue eq;
    Mesh m(params8x8());
    // Local (h=0) delivery is router-only: a packet and its bytes
    // are counted, but no flits cross any link — consistent with
    // routeLatency/reserve, which charge no link traversal.
    m.account(5, 5, TrafficClass::Read, dataPacketBytes);
    EXPECT_EQ(m.traffic().totalPackets(), 1u);
    EXPECT_GT(m.traffic().bytes[std::size_t(TrafficClass::Read)], 0u);
    EXPECT_EQ(m.traffic().flitHops, 0u);
    m.send(eq, 5, 5, TrafficClass::Read, dataPacketBytes, nullptr);
    EXPECT_EQ(m.traffic().flitHops, 0u);
    // One hop still charges flits x 1.
    m.account(0, 1, TrafficClass::Read, dataPacketBytes);
    EXPECT_EQ(m.traffic().flitHops, 5u);  // 72B / 16B-flits = 5
    eq.run();
}

} // namespace
} // namespace spmcoh

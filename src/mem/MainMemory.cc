/**
 * @file
 * Memory controller message handling.
 */

#include "mem/MainMemory.hh"

#include "mem/MemNet.hh"

namespace spmcoh
{

void
MemCtrl::handle(const Message &msg)
{
    switch (msg.type) {
      case MsgType::MemRead: {
        ++stReads;
        if (pool && pool->backingChip(msg.addr) != myChip) {
            servePooled(msg, false);
            break;
        }
        const Tick done = serviceSlot();
        Message resp;
        resp.type = MsgType::MemReadResp;
        resp.addr = msg.addr;
        resp.requestor = msg.requestor;
        resp.hasData = true;
        resp.aux = msg.aux;
        resp.cls = msg.cls;
        resp.data = mem.readLine(msg.addr);
        const CoreId dst = msg.src;
        // The line-carrying response is parked in the message pool so
        // the delayed-send closure stays inline-sized.
        Message *pm = net.msgPool().acquire(resp);
        eq.schedule(done, [this, pm, dst] {
            net.send(tile, Endpoint::Dir, dst, *pm, pm->cls);
            net.msgPool().release(pm);
        });
        break;
      }
      case MsgType::MemWrite: {
        ++stWrites;
        if (pool && pool->backingChip(msg.addr) != myChip) {
            mem.writeLine(msg.addr, msg.data);
            servePooled(msg, true);
            break;
        }
        const Tick done = serviceSlot();
        mem.writeLine(msg.addr, msg.data);
        Message resp;
        resp.type = MsgType::MemWriteAck;
        resp.addr = msg.addr;
        resp.requestor = msg.requestor;
        resp.aux = msg.aux;
        resp.cls = msg.cls;
        const CoreId dst = msg.src;
        Message *pm = net.msgPool().acquire(resp);
        eq.schedule(done, [this, pm, dst] {
            net.send(tile, Endpoint::Dir, dst, *pm, pm->cls);
            net.msgPool().release(pm);
        });
        break;
      }
      default:
        panic("MemCtrl: unexpected message type");
    }
}

void
MemCtrl::servePooled(const Message &msg, bool is_write)
{
    // Functional semantics match the local path exactly (the line is
    // read/written at handle time); only the timing differs — the
    // pool's shared queue and latency replace the local DRAM slot.
    Message resp;
    resp.type = is_write ? MsgType::MemWriteAck : MsgType::MemReadResp;
    resp.addr = msg.addr;
    resp.requestor = msg.requestor;
    resp.hasData = !is_write;
    resp.aux = msg.aux;
    resp.cls = msg.cls;
    if (!is_write)
        resp.data = mem.readLine(msg.addr);
    const CoreId dst = msg.src;
    Message *pm = net.msgPool().acquire(resp);
    // The pool's next-free slot is shared by every controller on
    // every chip, so the reservation is routed through deferCross:
    // one-region runs execute it inline at the same tick, partitioned
    // runs at the single-threaded epoch merge in canonical order.
    const Tick at = eq.now();
    net.deferCross(at, [this, pm, dst, at, is_write] {
        Tick done = pool->serviceAt(at, is_write);
        if (HomeAgent *ha = net.homeAgent())
            ha->notePool(is_write);
        EventQueue &q = net.queueFor(tile);
        if (done < q.now())
            done = q.now();
        q.schedule(done, [this, pm, dst] {
            net.send(tile, Endpoint::Dir, dst, *pm, pm->cls);
            net.msgPool().release(pm);
        });
    });
}

} // namespace spmcoh

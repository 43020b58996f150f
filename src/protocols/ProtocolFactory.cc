/**
 * @file
 * Built-in coherence protocols and the global factory.
 *
 * Three machines are registered:
 *
 *  - MOESI with owner-forwarding ("spm-hybrid", the default that
 *    the paper's hybrid system runs on): a dirty owner answering a
 *    GetS keeps the line in O, so producer/consumer sharing never
 *    touches the L2 slice.
 *  - Plain MESI ("mesi"): no Owned state. A dirty owner answering a
 *    GetS downgrades to S and the directory absorbs the dirty line
 *    into its L2 slice, trading L1-to-L1 forwarding for extra L2 /
 *    memory pressure.
 *  - Dragon-style update protocol ("dragon"): stores to shared lines
 *    ship the written word to the home slice, which applies it and
 *    pushes the new line to every sharer instead of invalidating
 *    them. Write-heavy sharing turns into update fan-out traffic.
 */

#include "protocols/ProtocolFactory.hh"

namespace spmcoh
{

namespace
{

/** MOESI directory machine with owner-forwarding. */
class MoesiProtocol final : public CoherenceProtocol
{
  public:
    MoesiProtocol(std::string name, std::string desc)
        : CoherenceProtocol(std::move(name), std::move(desc))
    {
        set(PState::I, PEvent::Load, PState::S, PAction::IssueGetS);
        for (PState s : {PState::S, PState::E, PState::O, PState::M})
            set(s, PEvent::Load, s, PAction::Hit);

        set(PState::I, PEvent::Store, PState::M, PAction::IssueGetX);
        set(PState::S, PEvent::Store, PState::M, PAction::IssueGetX);
        set(PState::E, PEvent::Store, PState::M, PAction::Hit);
        set(PState::O, PEvent::Store, PState::M, PAction::IssueGetX);
        set(PState::M, PEvent::Store, PState::M, PAction::Hit);

        // A dirty owner serving a read keeps the line (-> Owned).
        set(PState::S, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::E, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::O, PEvent::FwdGetS, PState::O, PAction::SendData);
        set(PState::M, PEvent::FwdGetS, PState::O, PAction::SendData);

        for (PState s : {PState::S, PState::E, PState::O, PState::M}) {
            set(s, PEvent::FwdGetX, PState::I, PAction::SendData);
            set(s, PEvent::Inv, PState::I, PAction::SendData);
        }

        set(PState::S, PEvent::Replace, PState::I, PAction::PutShared);
        set(PState::E, PEvent::Replace, PState::I, PAction::PutClean);
        set(PState::O, PEvent::Replace, PState::I, PAction::PutDirty);
        set(PState::M, PEvent::Replace, PState::I, PAction::PutDirty);
    }

    bool ownerKeepsDirtyOnGetS() const override { return true; }
    bool updateBased() const override { return false; }
};

/** Plain MESI: no Owned state, no owner-forwarding retention. */
class MesiProtocol final : public CoherenceProtocol
{
  public:
    MesiProtocol(std::string name, std::string desc)
        : CoherenceProtocol(std::move(name), std::move(desc))
    {
        set(PState::I, PEvent::Load, PState::S, PAction::IssueGetS);
        for (PState s : {PState::S, PState::E, PState::M})
            set(s, PEvent::Load, s, PAction::Hit);

        set(PState::I, PEvent::Store, PState::M, PAction::IssueGetX);
        set(PState::S, PEvent::Store, PState::M, PAction::IssueGetX);
        set(PState::E, PEvent::Store, PState::M, PAction::Hit);
        set(PState::M, PEvent::Store, PState::M, PAction::Hit);

        // A dirty owner serving a read hands the line back and
        // downgrades to S; the directory's L2 slice absorbs it.
        set(PState::S, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::E, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::M, PEvent::FwdGetS, PState::S, PAction::SendData);

        for (PState s : {PState::S, PState::E, PState::M}) {
            set(s, PEvent::FwdGetX, PState::I, PAction::SendData);
            set(s, PEvent::Inv, PState::I, PAction::SendData);
        }

        set(PState::S, PEvent::Replace, PState::I, PAction::PutShared);
        set(PState::E, PEvent::Replace, PState::I, PAction::PutClean);
        set(PState::M, PEvent::Replace, PState::I, PAction::PutDirty);
    }

    bool ownerKeepsDirtyOnGetS() const override { return false; }
    bool updateBased() const override { return false; }
};

/** Dragon-style write-update protocol (directory-ordered). */
class DragonProtocol final : public CoherenceProtocol
{
  public:
    DragonProtocol(std::string name, std::string desc)
        : CoherenceProtocol(std::move(name), std::move(desc))
    {
        set(PState::I, PEvent::Load, PState::S, PAction::IssueGetS);
        for (PState s : {PState::S, PState::E, PState::M})
            set(s, PEvent::Load, s, PAction::Hit);

        // Stores to shared (or untracked) lines ship the word to the
        // home slice; exclusive holders write locally as usual. The
        // home slice answers DataM (ownership grant) when nobody
        // else caches the line, or UpdData after fanning updates out
        // to the sharers.
        set(PState::I, PEvent::Store, PState::M, PAction::IssueUpdX);
        set(PState::S, PEvent::Store, PState::S, PAction::IssueUpdX);
        set(PState::E, PEvent::Store, PState::M, PAction::Hit);
        set(PState::M, PEvent::Store, PState::M, PAction::Hit);

        set(PState::S, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::E, PEvent::FwdGetS, PState::S, PAction::SendData);
        set(PState::M, PEvent::FwdGetS, PState::S, PAction::SendData);

        for (PState s : {PState::S, PState::E, PState::M}) {
            set(s, PEvent::FwdGetX, PState::I, PAction::SendData);
            set(s, PEvent::Inv, PState::I, PAction::SendData);
        }

        // Sharers overwrite their copy with the pushed line.
        set(PState::S, PEvent::Update, PState::S, PAction::Apply);

        set(PState::S, PEvent::Replace, PState::I, PAction::PutShared);
        set(PState::E, PEvent::Replace, PState::I, PAction::PutClean);
        set(PState::M, PEvent::Replace, PState::I, PAction::PutDirty);
    }

    bool ownerKeepsDirtyOnGetS() const override { return false; }
    bool updateBased() const override { return true; }
};

} // namespace

ProtocolFactory &
ProtocolFactory::global()
{
    static ProtocolFactory f = [] {
        ProtocolFactory g;
        g.add(std::make_unique<MoesiProtocol>(
            defaultName(),
            "MOESI directory with owner-forwarding; the paper's "
            "hybrid machine (default)"));
        g.add(std::make_unique<MesiProtocol>(
            "mesi",
            "plain MESI: dirty owner-forwards downgrade to S and "
            "write through to the L2 slice"));
        g.add(std::make_unique<DragonProtocol>(
            "dragon",
            "Dragon-style write-update: stores to shared lines fan "
            "updates out to the sharers"));
        return g;
    }();
    return f;
}

const std::string &
ProtocolFactory::defaultName()
{
    static const std::string name = "spm-hybrid";
    return name;
}

const CoherenceProtocol &
ProtocolFactory::defaultProtocol()
{
    return global().get(defaultName());
}

void
ProtocolFactory::add(std::unique_ptr<CoherenceProtocol> proto)
{
    if (!proto)
        fatal("ProtocolFactory: null protocol");
    const std::string name = proto->name();
    if (name.empty())
        fatal("ProtocolFactory: protocol needs a name");
    if (!protos.emplace(name, std::move(proto)).second)
        fatal("ProtocolFactory: duplicate protocol '" + name + "'");
}

bool
ProtocolFactory::contains(const std::string &name) const
{
    return protos.count(name) != 0;
}

const CoherenceProtocol *
ProtocolFactory::find(const std::string &name) const
{
    auto it = protos.find(name);
    return it == protos.end() ? nullptr : it->second.get();
}

const CoherenceProtocol &
ProtocolFactory::get(const std::string &name) const
{
    if (const CoherenceProtocol *p = find(name))
        return *p;
    fatal("unknown protocol '" + name + "'; known protocols: " +
          namesJoined());
}

std::vector<std::string>
ProtocolFactory::names() const
{
    std::vector<std::string> out;
    out.reserve(protos.size());
    for (const auto &kv : protos)
        out.push_back(kv.first);
    return out;
}

std::string
ProtocolFactory::namesJoined() const
{
    std::string out;
    for (const auto &kv : protos) {
        if (!out.empty())
            out += ", ";
        out += kv.first;
    }
    return out;
}

} // namespace spmcoh

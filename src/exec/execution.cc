#include "exec/execution.hh"

#include <atomic>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "relation/kernels.hh"

namespace lkmm
{

namespace
{

/** Source of rfStamp() values; 0 is reserved for "never finalized". */
std::atomic<std::uint64_t> nextRfStamp{1};

} // namespace

std::string
Event::toString(const std::vector<std::string> &locNames) const
{
    std::string out = label.empty() ? ("e" + std::to_string(id)) : label;
    out += ": ";
    switch (kind) {
      case EvKind::Read:
        out += "R[";
        out += annName(ann);
        out += "] ";
        out += locNames[loc];
        out += "=" + std::to_string(value);
        break;
      case EvKind::Write:
        out += "W[";
        out += annName(ann);
        out += "] ";
        out += locNames[loc];
        out += "=" + std::to_string(value);
        break;
      case EvKind::Fence:
        out += "F[";
        out += annName(ann);
        out += "]";
        break;
    }
    if (isInit)
        out += " (init)";
    return out;
}

void
CandidateExecution::finalize()
{
    finalizeStatic();
    finalizeRf();
    finalizeCo();
}

void
CandidateExecution::ensureRel(Relation &r, std::size_t n)
{
    if (r.size() == n)
        return;
    r = arena_.ptr ? Relation(*arena_.ptr, n) : Relation(n);
}

void
CandidateExecution::finalizeStatic()
{
    const std::size_t n = events.size();
    rfStamp_ = nextRfStamp.fetch_add(1, std::memory_order_relaxed);

    reads_ = EventSet(n);
    writes_ = EventSet(n);
    fences_ = EventSet(n);
    all_ = EventSet::full(n);
    byAnn_.clear();
    fenceRelCache_.clear();

    for (const Event &e : events) {
        switch (e.kind) {
          case EvKind::Read: reads_.add(e.id); break;
          case EvKind::Write: writes_.add(e.id); break;
          case EvKind::Fence: fences_.add(e.id); break;
        }
        auto it = byAnn_.find(e.ann);
        if (it == byAnn_.end())
            it = byAnn_.emplace(e.ann, EventSet(n)).first;
        it->second.add(e.id);
    }
    mem_ = reads_ | writes_;

    // int, ext ------------------------------------------------------
    ensureRel(int_, n);
    rel::clear(int_);
    for (const Event &a : events) {
        for (const Event &b : events) {
            if (a.tid >= 0 && a.tid == b.tid)
                int_.add(a.id, b.id);
        }
    }
    ensureRel(ext_, n);
    rel::complementInto(ext_, int_);

    // crit: match outermost rcu_read_lock/rcu_read_unlock per thread.
    ensureRel(crit_, n);
    rel::clear(crit_);
    std::map<int, std::vector<EventId>> lockStacks;
    // Events are laid out init-first then per-thread in po order, so
    // a single id-ordered scan visits each thread in program order.
    for (const Event &e : events) {
        if (e.ann == Ann::RcuLock) {
            lockStacks[e.tid].push_back(e.id);
        } else if (e.ann == Ann::RcuUnlock) {
            auto &stack = lockStacks[e.tid];
            if (stack.empty())
                continue; // unbalanced unlock: ignored
            EventId lock = stack.back();
            stack.pop_back();
            if (stack.empty())
                crit_.add(lock, e.id);
        }
    }

    const EventSet &rel = withAnn(Ann::Release);
    const EventSet &acq = withAnn(Ann::Acquire);
    const EventSet &sync = withAnn(Ann::SyncRcu);

    if (!arena_.ptr) {
        // Allocating path: the value-returning algebra, one heap
        // matrix per intermediate.  This is the brute oracle's own
        // derivation, independent of the kernel path below.
        rmb_ = fenceRel(Ann::Rmb).restrictDomain(reads_)
            .restrictRange(reads_);
        wmb_ = fenceRel(Ann::Wmb).restrictDomain(writes_)
            .restrictRange(writes_);
        mb_ = fenceRel(Ann::Mb).restrictDomain(mem_)
            .restrictRange(mem_);
        rbDep_ = fenceRel(Ann::RbDep).restrictDomain(reads_)
            .restrictRange(reads_);
        poRel_ = po.restrictDomain(mem_).restrictRange(rel & writes_);
        acqPo_ = po.restrictDomain(acq & reads_).restrictRange(mem_);
        gp_ = po.restrictRange(sync).seq(po.opt());
        rscs_ = po.seq(crit_.inverse()).seq(po.opt());
        return;
    }

    // Destination-passing path: fused row passes into reused arena
    // storage, no temporaries.
    const std::size_t stride = po.strideWords();
    ensureRel(scratchA_, n);
    ensureRel(scratchB_, n);

    fenceRelInto(rmb_, Ann::Rmb, reads_, reads_);
    fenceRelInto(wmb_, Ann::Wmb, writes_, writes_);
    fenceRelInto(mb_, Ann::Mb, mem_, mem_);
    fenceRelInto(rbDep_, Ann::RbDep, reads_, reads_);

    // poRel = [M]; po; [Release ∩ W],  acqPo = [Acquire ∩ R]; po; [M]
    ensureRel(poRel_, n);
    ensureRel(acqPo_, n);
    for (EventId e = 0; e < n; ++e) {
        const std::uint64_t *rp = po.row(e);
        std::uint64_t *r1 = poRel_.row(e);
        std::uint64_t *r2 = acqPo_.row(e);
        const bool inMem = mem_.contains(e);
        const bool acqRead = acq.contains(e) && reads_.contains(e);
        for (std::size_t w = 0; w < stride; ++w) {
            r1[w] = inMem
                ? rp[w] & rel.raw()[w] & writes_.raw()[w]
                : 0;
            r2[w] = acqRead ? rp[w] & mem_.raw()[w] : 0;
        }
    }

    // gp = (po ∩ (_ × Sync)); po?  =  t | t;po  with t the range
    // restriction.
    for (EventId e = 0; e < n; ++e) {
        const std::uint64_t *rp = po.row(e);
        std::uint64_t *rs = scratchA_.row(e);
        for (std::size_t w = 0; w < stride; ++w)
            rs[w] = rp[w] & sync.raw()[w];
    }
    ensureRel(gp_, n);
    rel::composeInto(gp_, scratchA_, po);
    gp_ |= scratchA_;

    // rscs = po; crit^-1; po?  =  t | t;po  with t = po; crit^-1.
    rel::inverseInto(scratchA_, crit_);
    rel::composeInto(scratchB_, po, scratchA_);
    ensureRel(rscs_, n);
    rel::composeInto(rscs_, scratchB_, po);
    rscs_ |= scratchB_;
}

void
CandidateExecution::fenceRelInto(Relation &dst, Ann a,
                                 const EventSet &dom,
                                 const EventSet &rng)
{
    const std::size_t n = events.size();
    const std::size_t stride = po.strideWords();
    const EventSet &fs = withAnn(a);

    // scratchA_ = po ∩ (_ × F[a]).
    for (EventId e = 0; e < n; ++e) {
        const std::uint64_t *rp = po.row(e);
        std::uint64_t *rs = scratchA_.row(e);
        for (std::size_t w = 0; w < stride; ++w)
            rs[w] = rp[w] & fs.raw()[w];
    }
    ensureRel(dst, n);
    rel::composeInto(dst, scratchA_, po);
    // dst = [dom]; dst; [rng].
    for (EventId e = 0; e < n; ++e) {
        std::uint64_t *rd = dst.row(e);
        const bool keep = dom.contains(e);
        for (std::size_t w = 0; w < stride; ++w)
            rd[w] = keep ? rd[w] & rng.raw()[w] : 0;
    }
}

void
CandidateExecution::finalizeRf()
{
    const std::size_t n = events.size();
    rfStamp_ = nextRfStamp.fetch_add(1, std::memory_order_relaxed);

    // loc needs the *resolved* event locations, available only after
    // the valuation fixed dynamic addresses.
    ensureRel(loc_, n);
    rel::clear(loc_);
    for (const Event &a : events) {
        for (const Event &b : events) {
            if (a.isMem() && b.isMem() && a.loc == b.loc)
                loc_.add(a.id, b.id);
        }
    }

    if (!arena_.ptr) {
        poLoc_ = po & loc_;
        rfi_ = rf & int_;
        rfe_ = rf & ext_;
        rfInv_ = rf.inverse();
        rfiRelAcq_ = rfi_.restrictDomain(withAnn(Ann::Release))
            .restrictRange(withAnn(Ann::Acquire));
        return;
    }

    ensureRel(poLoc_, n);
    rel::intersectInto(poLoc_, po, loc_);

    ensureRel(rfi_, n);
    rel::intersectInto(rfi_, rf, int_);
    ensureRel(rfe_, n);
    rel::intersectInto(rfe_, rf, ext_);
    ensureRel(rfInv_, n);
    rel::inverseInto(rfInv_, rf);

    // [Release]; rfi; [Acquire], both restrictions fused into one
    // row pass.
    ensureRel(rfiRelAcq_, n);
    rel::clear(rfiRelAcq_);
    const EventSet &relSet = withAnn(Ann::Release);
    const EventSet &acqSet = withAnn(Ann::Acquire);
    const std::size_t stride = rfiRelAcq_.strideWords();
    for (EventId a = 0; a < n; ++a) {
        if (!relSet.contains(a))
            continue;
        const std::uint64_t *src = rfi_.row(a);
        std::uint64_t *dst = rfiRelAcq_.row(a);
        for (std::size_t w = 0; w < stride; ++w)
            dst[w] = src[w] & acqSet.raw()[w];
    }
}

void
CandidateExecution::finalizeCo()
{
    // Communication relations ---------------------------------------
    const std::size_t n = events.size();
    if (!arena_.ptr) {
        fr_ = rfInv_.seq(co);
        com_ = rf | co | fr_;
        coe_ = co & ext_;
        coi_ = co & int_;
        fre_ = fr_ & ext_;
        fri_ = fr_ & int_;
    } else {
        ensureRel(fr_, n);
        rel::composeInto(fr_, rfInv_, co);
        ensureRel(com_, n);
        rel::unionInto(com_, rf, co);
        com_ |= fr_;
        ensureRel(coe_, n);
        rel::intersectInto(coe_, co, ext_);
        ensureRel(coi_, n);
        rel::intersectInto(coi_, co, int_);
        ensureRel(fre_, n);
        rel::intersectInto(fre_, fr_, ext_);
        ensureRel(fri_, n);
        rel::intersectInto(fri_, fr_, int_);
    }

    // Final state ------------------------------------------------------
    if (program) {
        finalMem.assign(program->numLocs(), 0);
        for (LocId l = 0; l < program->numLocs(); ++l)
            finalMem[l] = program->initValue(l);
        // co-maximal write per location.
        for (const Event &e : events) {
            if (!e.isWrite())
                continue;
            bool is_last = true;
            for (const Event &o : events) {
                if (o.isWrite() && o.loc == e.loc &&
                    co.contains(e.id, o.id)) {
                    is_last = false;
                    break;
                }
            }
            if (is_last && e.loc >= 0 &&
                e.loc < static_cast<LocId>(finalMem.size())) {
                finalMem[e.loc] = e.value;
            }
        }
    }
}

const EventSet &
CandidateExecution::withAnn(Ann a) const
{
    static const EventSet empty;
    auto it = byAnn_.find(a);
    if (it == byAnn_.end()) {
        // Lazily cache an empty set of the right size.
        auto *self = const_cast<CandidateExecution *>(this);
        it = self->byAnn_.emplace(a, EventSet(events.size())).first;
    }
    return it->second;
}

Relation
CandidateExecution::fenceRel(Ann a) const
{
    auto it = fenceRelCache_.find(a);
    if (it == fenceRelCache_.end()) {
        const EventSet &fs = withAnn(a);
        it = fenceRelCache_.emplace(a, po.restrictRange(fs).seq(po))
                 .first;
    }
    return it->second;
}

bool
CandidateExecution::satisfiesCondition() const
{
    panicIf(!program, "execution has no program");
    return program->condition.eval(finalRegs, finalMem);
}

std::string
CandidateExecution::finalStateString() const
{
    static const std::vector<std::string> noLocs;
    return finalStateString(program ? program->locNames : noLocs,
                            finalRegs, finalMem);
}

std::string
CandidateExecution::finalStateString(
    const std::vector<std::string> &locNames,
    const std::vector<std::vector<Value>> &regs,
    const std::vector<Value> &mem)
{
    std::string out;
    for (std::size_t t = 0; t < regs.size(); ++t) {
        for (std::size_t r = 0; r < regs[t].size(); ++r) {
            out += format("%zu:r%zu=%lld; ", t, r,
                          static_cast<long long>(regs[t][r]));
        }
    }
    for (std::size_t l = 0; l < mem.size(); ++l) {
        out += locNames[l] + "=" + std::to_string(mem[l]) + "; ";
    }
    return out;
}

std::string
CandidateExecution::toString() const
{
    std::string out;
    out += "events:\n";
    for (const Event &e : events)
        out += "  " + e.toString(program->locNames) + "\n";
    out += "rf: " + rf.toString() + "\n";
    out += "co: " + co.toString() + "\n";
    out += "final: " + finalStateString() + "\n";
    return out;
}

} // namespace lkmm

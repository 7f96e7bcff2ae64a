#include "model/lkmm_model.hh"

#include <initializer_list>
#include <utility>

#include "relation/kernels.hh"

namespace lkmm
{

LkmmRelations
LkmmModel::buildRelations(const CandidateExecution &ex) const
{
    const std::size_t n = ex.numEvents();
    const Relation id = Relation::identity(n);
    LkmmRelations r;

    // Figure 8, line by line ----------------------------------------

    // dep := addr ∪ data
    r.dep = ex.addr | ex.data;

    // rwdep := (dep ∪ ctrl) ∩ (R × W)
    r.rwdep = (r.dep | ex.ctrl) &
        Relation::product(ex.reads(), ex.writes());

    // overwrite := co ∪ fr
    r.overwrite = ex.co | ex.fr();

    // to-w := rwdep ∪ (overwrite ∩ int)
    r.toW = r.rwdep | (r.overwrite & ex.intRel());

    // rrdep := addr ∪ (dep; rfi)
    r.rrdep = ex.addr | r.dep.seq(ex.rfi());

    // strong-rrdep := rrdep⁺ ∩ rb-dep
    if (cfg_.freeRrdep) {
        // Ablation: pretend every architecture preserved read-read
        // dependencies (i.e. Alpha did not exist; Section 7).
        r.strongRrdep = r.rrdep.plus();
    } else {
        r.strongRrdep = r.rrdep.plus() & ex.rbDepRel();
    }

    // to-r := strong-rrdep ∪ rfi-rel-acq
    r.toR = r.strongRrdep | ex.rfiRelAcq();

    // strong-fence := mb ∪ gp          (gp added by Figure 12)
    r.gp = ex.gp();
    r.strongFence = cfg_.gpIsStrongFence ? (ex.mbRel() | r.gp)
                                         : ex.mbRel();

    // fence := strong-fence ∪ po-rel ∪ wmb ∪ rmb ∪ acq-po
    r.fence = r.strongFence | ex.poRel() | ex.wmbRel() | ex.rmbRel() |
        ex.acqPo();

    // ppo := rrdep*; (to-r ∪ to-w ∪ fence)
    const Relation core = r.toR | r.toW | r.fence;
    r.ppo = cfg_.rrdepPrefix ? r.rrdep.star().seq(core) : core;

    // cumul-fence := A-cumul(strong-fence ∪ po-rel) ∪ wmb
    //   where A-cumul(s) := rfe?; s
    Relation a_cumul_arg = r.strongFence | ex.poRel();
    Relation a_cumul = cfg_.aCumulativity
        ? ex.rfe().opt().seq(a_cumul_arg)
        : a_cumul_arg;
    r.cumulFence = a_cumul | ex.wmbRel();

    // prop := (overwrite ∩ ext)?; cumul-fence*; rfe?
    r.prop = (r.overwrite & ex.extRel()).opt()
        .seq(r.cumulFence.star())
        .seq(ex.rfe().opt());

    // hb := ((prop \ id) ∩ int) ∪ ppo ∪ rfe
    r.hb = ((r.prop - id) & ex.intRel()) | r.ppo | ex.rfe();

    // pb := prop; strong-fence; hb*
    r.pb = r.prop.seq(r.strongFence).seq(r.hb.star());

    // Figure 12 -------------------------------------------------------

    // rscs := po; crit⁻¹; po?
    r.rscs = ex.rscs();

    // link := hb*; pb*; prop
    r.link = r.hb.star().seq(r.pb.star()).seq(r.prop);

    // gp-link := gp; link,  rscs-link := rscs; link
    r.gpLink = r.gp.seq(r.link);
    r.rscsLink = r.rscs.seq(r.link);

    // rec rcu-path := gp-link
    //   ∪ (rcu-path; rcu-path)
    //   ∪ (gp-link; rscs-link) ∪ (rscs-link; gp-link)
    //   ∪ (gp-link; rcu-path; rscs-link)
    //   ∪ (rscs-link; rcu-path; gp-link)
    r.rcuPath = Relation::lfp(n, [&](const Relation &p) {
        return r.gpLink
            | p.seq(p)
            | r.gpLink.seq(r.rscsLink)
            | r.rscsLink.seq(r.gpLink)
            | r.gpLink.seq(p).seq(r.rscsLink)
            | r.rscsLink.seq(p).seq(r.gpLink);
    });

    return r;
}

// The native check ----------------------------------------------------
//
// check() computes the same relations as buildRelations() with the
// destination-passing kernels, into reused thread-local scratch, in
// three stages (DESIGN.md, "The native model check"):
//
//   static + rf: everything that depends only on the events, the
//     abstract execution and rf — computed when the execution's
//     rfStamp() changes, shared by every co of that rf;
//   co: what needs co, per candidate, and only up to the first
//     failing axiom;
//   rcu: only when gp is non-empty (otherwise rcu-path = ∅ exactly).

namespace
{

/** r := r ∪ id. */
void
addIdentity(Relation &r)
{
    for (EventId e = 0; e < r.size(); ++e)
        r.add(e, e);
}

/** r := r* in place. */
void
starInPlace(Relation &r)
{
    rel::closureInPlace(r);
    addIdentity(r);
}

/** Make r a destination over n events, reusing its storage. */
void
ensure(Relation &r, std::size_t n)
{
    if (r.size() != n)
        r = Relation(n);
}

/** Per-thread scratch and the rf-stage memo of LkmmModel::check. */
struct CheckScratch
{
    // Memo key of the static + rf results below.
    const LkmmModel *model = nullptr;
    LkmmModel::Config cfg;
    std::size_t n = 0;
    std::uint64_t stamp = 0;

    // Static + rf results, read by every candidate of one rf.
    Relation ppoBase;        ///< to-r ∪ rwdep ∪ fence
    Relation strongFence;    ///< mb ∪ gp
    Relation rrdepStar;      ///< rrdep*
    Relation cumulFenceStar; ///< cumul-fence*
    bool rmwEmpty = true;
    bool rrdepEmpty = true;
    bool cumulFenceEmpty = true;
    bool gpEmpty = true;

    // Per-candidate relations.
    Relation hb, hbStar, prop, pb, gpLink, rscsLink;

    // Temporaries.
    Relation a, b, c, d, e;

    void
    size(std::size_t events)
    {
        for (Relation *r : {&ppoBase, &strongFence, &rrdepStar,
                            &cumulFenceStar, &hb, &hbStar, &prop, &pb,
                            &gpLink, &rscsLink, &a, &b, &c, &d, &e})
            ensure(*r, events);
    }
};

thread_local CheckScratch checkScratch;

/** The static + rf group of Figures 8 and 12. */
void
computeRfStage(const CandidateExecution &ex,
               const LkmmModel::Config &cfg, CheckScratch &s)
{
    const std::size_t n = ex.numEvents();
    const std::size_t stride = s.a.strideWords();

    // dep := addr ∪ data  (in a)
    rel::unionInto(s.a, ex.addr, ex.data);

    // rwdep := (dep ∪ ctrl) ∩ (R × W)  (in ppoBase)
    rel::unionInto(s.ppoBase, s.a, ex.ctrl);
    for (EventId e = 0; e < n; ++e) {
        std::uint64_t *row = s.ppoBase.row(e);
        const bool read = ex.reads().contains(e);
        for (std::size_t w = 0; w < stride; ++w)
            row[w] = read ? row[w] & ex.writes().raw()[w] : 0;
    }

    // strong-fence := mb ∪ gp
    if (cfg.gpIsStrongFence)
        rel::unionInto(s.strongFence, ex.mbRel(), ex.gp());
    else
        rel::copyInto(s.strongFence, ex.mbRel());

    // rrdep := addr ∪ (dep; rfi)  (in c)
    rel::composeInto(s.b, s.a, ex.rfi());
    rel::unionInto(s.c, ex.addr, s.b);

    // strong-rrdep := rrdep⁺ ∩ rb-dep  (in b)
    rel::copyInto(s.b, s.c);
    rel::closureInPlace(s.b);
    if (!cfg.freeRrdep)
        rel::intersectInto(s.b, s.b, ex.rbDepRel());

    // The co-independent part of ppo's core: to-r ∪ rwdep ∪ fence,
    //   to-r := strong-rrdep ∪ rfi-rel-acq
    //   fence := strong-fence ∪ po-rel ∪ wmb ∪ rmb ∪ acq-po
    const std::initializer_list<const Relation *> core = {
        &s.b, &ex.rfiRelAcq(), &s.strongFence, &ex.poRel(),
        &ex.wmbRel(), &ex.rmbRel(), &ex.acqPo()};
    for (const Relation *r : core)
        rel::unionInto(s.ppoBase, s.ppoBase, *r);

    // rrdep*; with rrdep = ∅ it is id, and check() skips it.
    s.rrdepEmpty = s.c.empty();
    if (cfg.rrdepPrefix) {
        rel::copyInto(s.rrdepStar, s.c);
        starInPlace(s.rrdepStar);
    }

    // cumul-fence := A-cumul(strong-fence ∪ po-rel) ∪ wmb,
    //   A-cumul(r) := rfe?; r  =  r ∪ rfe; r
    rel::unionInto(s.a, s.strongFence, ex.poRel());
    rel::copyInto(s.cumulFenceStar, s.a);
    if (cfg.aCumulativity) {
        rel::composeInto(s.b, ex.rfe(), s.a);
        rel::unionInto(s.cumulFenceStar, s.cumulFenceStar, s.b);
    }
    rel::unionInto(s.cumulFenceStar, s.cumulFenceStar, ex.wmbRel());
    s.cumulFenceEmpty = s.cumulFenceStar.empty();
    starInPlace(s.cumulFenceStar);

    s.rmwEmpty = ex.rmw.empty();
    s.gpEmpty = ex.gp().empty();
}

/**
 * rcu-path of Figure 12 by Kleene iteration from ∅ — the same
 * sequence Relation::lfp walks in buildRelations() — left in s.a.
 * Needs s.hbStar, s.pb and s.prop of the candidate.
 */
void
computeRcuPath(const CandidateExecution &ex, CheckScratch &s)
{
    // link := hb*; pb*; prop  (in d)
    rel::copyInto(s.c, s.pb);
    starInPlace(s.c);
    rel::composeInto(s.a, s.hbStar, s.c);
    rel::composeInto(s.d, s.a, s.prop);

    // gp-link := gp; link,  rscs-link := rscs; link
    rel::composeInto(s.gpLink, ex.gp(), s.d);
    rel::composeInto(s.rscsLink, ex.rscs(), s.d);

    // The terms without rcu-path: gp-link ∪ (gp-link; rscs-link)
    //   ∪ (rscs-link; gp-link)  (in d)
    rel::composeInto(s.a, s.gpLink, s.rscsLink);
    rel::unionInto(s.d, s.gpLink, s.a);
    rel::composeInto(s.a, s.rscsLink, s.gpLink);
    rel::unionInto(s.d, s.d, s.a);

    // p := ∅, then p := d ∪ (p; p) ∪ (gp-link; p; rscs-link)
    //   ∪ (rscs-link; p; gp-link) until stable.  p lives in a, the
    //   next iterate in b; c and e hold the triple products.
    rel::clear(s.a);
    for (;;) {
        rel::composeInto(s.b, s.a, s.a);
        rel::unionInto(s.b, s.b, s.d);
        rel::composeInto(s.c, s.gpLink, s.a);
        rel::composeInto(s.e, s.c, s.rscsLink);
        rel::unionInto(s.b, s.b, s.e);
        rel::composeInto(s.c, s.rscsLink, s.a);
        rel::composeInto(s.e, s.c, s.gpLink);
        rel::unionInto(s.b, s.b, s.e);
        if (s.b == s.a)
            return;
        std::swap(s.a, s.b);
    }
}

} // namespace

std::optional<Violation>
LkmmModel::check(const CandidateExecution &ex) const
{
    const std::size_t n = ex.numEvents();
    CheckScratch &s = checkScratch;
    s.size(n);

    // Static + rf stage, memoized on the execution's rfStamp().
    const std::uint64_t stamp = ex.rfStamp();
    if (stamp == 0 || s.stamp != stamp || s.model != this ||
        !(s.cfg == cfg_) || s.n != n) {
        s.stamp = 0; // invalid until the group is complete
        computeRfStage(ex, cfg_, s);
        s.model = this;
        s.cfg = cfg_;
        s.n = n;
        s.stamp = stamp;
    }
    const std::size_t stride = s.a.strideWords();

    // Figure 3: the core axioms.
    rel::unionInto(s.a, ex.poLoc(), ex.com());
    if (auto v = requireAcyclic(s.a, "sc-per-variable"))
        return v;
    if (!s.rmwEmpty) {
        rel::composeInto(s.a, ex.fre(), ex.coe());
        rel::intersectInto(s.a, s.a, ex.rmw);
        if (auto v = requireEmpty(s.a, "atomicity"))
            return v;
    }

    // overwrite := co ∪ fr  (in b)
    rel::unionInto(s.b, ex.co, ex.fr());

    // ppo := rrdep*; (to-r ∪ to-w ∪ fence),
    //   to-w := rwdep ∪ (overwrite ∩ int)
    for (EventId e = 0; e < n; ++e) {
        const std::uint64_t *ow = s.b.row(e);
        const std::uint64_t *in = ex.intRel().row(e);
        const std::uint64_t *base = s.ppoBase.row(e);
        std::uint64_t *core = s.c.row(e);
        for (std::size_t w = 0; w < stride; ++w)
            core[w] = base[w] | (ow[w] & in[w]);
    }
    const Relation *ppo = &s.c;
    if (cfg_.rrdepPrefix && !s.rrdepEmpty) {
        rel::composeInto(s.d, s.rrdepStar, s.c);
        ppo = &s.d;
    }

    // prop := (overwrite ∩ ext)?; cumul-fence*; rfe?
    rel::intersectInto(s.b, s.b, ex.extRel());
    if (s.cumulFenceEmpty) {
        // cumul-fence* = id
        rel::copyInto(s.a, s.b);
        addIdentity(s.a);
    } else {
        rel::composeInto(s.a, s.b, s.cumulFenceStar);
        rel::unionInto(s.a, s.a, s.cumulFenceStar);
    }
    rel::composeInto(s.prop, s.a, ex.rfe());
    rel::unionInto(s.prop, s.prop, s.a);

    // hb := ((prop \ id) ∩ int) ∪ ppo ∪ rfe
    rel::intersectInto(s.hb, s.prop, ex.intRel());
    for (EventId e = 0; e < n; ++e)
        s.hb.remove(e, e);
    rel::unionInto(s.hb, s.hb, *ppo);
    rel::unionInto(s.hb, s.hb, ex.rfe());
    if (auto v = requireAcyclic(s.hb, "happens-before"))
        return v;

    // pb := prop; strong-fence; hb*.  With prop; strong-fence empty
    // pb is ∅, acyclic, and hb* is needed only for the RCU axiom.
    // Figure 12's RCU axiom: every term of the rcu-path recursion but
    // rcu-path; rcu-path has the factor gp-link = gp; link, so with
    // gp empty the least fixpoint is ∅ and the axiom holds.
    const bool rcu = cfg_.rcuAxiom && !s.gpEmpty;
    rel::composeInto(s.a, s.prop, s.strongFence);
    const bool pbEmpty = s.a.empty();
    if (!pbEmpty || rcu) {
        rel::copyInto(s.hbStar, s.hb);
        starInPlace(s.hbStar);
    }
    if (pbEmpty) {
        rel::clear(s.pb);
    } else {
        rel::composeInto(s.pb, s.a, s.hbStar);
        if (auto v = requireAcyclic(s.pb, "propagates-before"))
            return v;
    }

    if (rcu) {
        computeRcuPath(ex, s);
        if (auto v = requireIrreflexive(s.a, "rcu"))
            return v;
    }

    return std::nullopt;
}

} // namespace lkmm

/**
 * @file
 * The Linux-kernel memory model: the paper's primary contribution.
 *
 * Axioms (Figure 3, plus the RCU axiom of Figure 12):
 *   - Scpv: acyclic(po-loc ∪ com)       — SC per variable
 *   - At:   empty(rmw ∩ (fre; coe))     — RMW atomicity
 *   - Hb:   acyclic(hb)                 — happens-before
 *   - Pb:   acyclic(pb)                 — propagates-before
 *   - Rcu:  irreflexive(rcu-path)       — grace-period guarantee
 *
 * The constrained relations are defined in Figure 8 (core) and
 * Figure 12 (RCU); buildRelations() below transcribes them
 * one-for-one so the code can be audited against the paper.
 *
 * buildRelations() is the reference.  check() computes the same
 * relations with the destination-passing kernels (relation/
 * kernels.hh) into reused thread-local scratch: the static and rf
 * parts once per rfStamp(), the co part per candidate and only up to
 * the first failing axiom, the RCU fixpoint only when gp is
 * non-empty, and a witness only for the axiom that fails.  Its
 * steady state allocates nothing.  tests/model/lkmm_check_test.cc
 * holds it to buildRelations() axiom by axiom and witness by
 * witness; DESIGN.md, "The native model check", has the argument.
 */

#ifndef LKMM_MODEL_LKMM_MODEL_HH
#define LKMM_MODEL_LKMM_MODEL_HH

#include "model/model.hh"

namespace lkmm
{

/** The derived relations of Figures 8 and 12, exposed for tests. */
struct LkmmRelations
{
    Relation dep;         ///< addr ∪ data
    Relation rwdep;       ///< (dep ∪ ctrl) ∩ (R × W)
    Relation overwrite;   ///< co ∪ fr
    Relation toW;         ///< rwdep ∪ (overwrite ∩ int)
    Relation rrdep;       ///< addr ∪ (dep; rfi)
    Relation strongRrdep; ///< rrdep⁺ ∩ rb-dep
    Relation toR;         ///< strong-rrdep ∪ rfi-rel-acq
    Relation gp;          ///< (po ∩ (_ × Sync)); po?
    Relation strongFence; ///< mb ∪ gp           (Figure 12)
    Relation fence;       ///< strong ∪ po-rel ∪ wmb ∪ rmb ∪ acq-po
    Relation ppo;         ///< rrdep*; (to-r ∪ to-w ∪ fence)
    Relation cumulFence;  ///< A-cumul(strong ∪ po-rel) ∪ wmb
    Relation prop;        ///< (overwrite ∩ ext)?; cumul-fence*; rfe?
    Relation hb;          ///< ((prop \ id) ∩ int) ∪ ppo ∪ rfe
    Relation pb;          ///< prop; strong-fence; hb*
    Relation rscs;        ///< po; crit⁻¹; po?
    Relation link;        ///< hb*; pb*; prop
    Relation gpLink;      ///< gp; link
    Relation rscsLink;    ///< rscs; link
    Relation rcuPath;     ///< Figure 12's recursive relation
};

/** The LK model, with the RCU axiom togglable for ablation. */
class LkmmModel : public Model
{
  public:
    /** Knobs for the ablation study (bench/bench_ablation.cc). */
    struct Config
    {
        /** Check the RCU axiom (Figure 12). */
        bool rcuAxiom = true;
        /** Keep the rrdep* prefix of ppo (forbids Figure 9). */
        bool rrdepPrefix = true;
        /**
         * Honour read-read address dependencies even without
         * smp_read_barrier_depends — what the model would be if
         * Alpha did not exist (Section 7).
         */
        bool freeRrdep = false;
        /** A-cumulativity of strong fences and releases. */
        bool aCumulativity = true;
        /** Include gp in strong-fence (synchronize_rcu as smp_mb). */
        bool gpIsStrongFence = true;

        bool operator==(const Config &) const = default;
    };

    LkmmModel() = default;
    explicit LkmmModel(const Config &cfg) : cfg_(cfg) {}

    std::string name() const override { return "lkmm"; }

    std::optional<Violation>
    check(const CandidateExecution &ex) const override;

    /**
     * sc-per-variable and atomicity are checked under every Config
     * — the ablation knobs only touch hb/pb/rcu — so the promise
     * holds unconditionally.
     */
    rel::SaturationSupport
    saturationSupport() const override
    {
        return {/*coherence=*/true, /*atomicity=*/true};
    }

    /**
     * Compute every derived relation with the value-semantics
     * algebra, one line per definition: the audited reference that
     * check() is tested against, also used by src/rcu and the tests.
     */
    LkmmRelations buildRelations(const CandidateExecution &ex) const;

    const Config &config() const { return cfg_; }

  private:
    Config cfg_;
};

} // namespace lkmm

#endif // LKMM_MODEL_LKMM_MODEL_HH

/**
 * @file
 * Enumeration of the candidate executions of a litmus program.
 *
 * This is the herd core: for every combination of per-thread
 * control-flow paths, every reads-from assignment and every
 * coherence order the model could accept, build the candidate
 * execution, solve the value equations, and hand consistent
 * candidates to the caller.  Model axioms are *not* applied here; models filter the
 * stream (see src/model/model.hh), exactly as herd separates
 * candidate generation from cat-model checking.
 */

#ifndef LKMM_EXEC_ENUMERATE_HH
#define LKMM_EXEC_ENUMERATE_HH

#include <functional>
#include <vector>

#include "base/budget.hh"
#include "exec/execution.hh"
#include "litmus/program.hh"
#include "relation/saturation.hh"

namespace lkmm
{

/**
 * The two enumeration engines.  Both deliver every candidate a
 * model could accept; the engine-identity and conformance suites
 * (tests/exec/engine_identity_test.cc,
 * tests/lkmm/conformance_test.cc) hold them to identical verdicts
 * and allowed-execution sets under every registry model.
 */
enum class EngineMode
{
    /**
     * The brute-force oracle: every complete rf assignment goes to
     * the full valuation, every co permutation of every consistent
     * one is built, and every candidate derives its relations from
     * scratch on the heap (CandidateExecution::finalize).  Beside
     * enum_core it shares the production engine's rf product walk,
     * its per-rf valuation accounting (budget hook and rf counters)
     * and the grouping of writes by location; the prefix cuts, the
     * staged arena derivation, saturation and the co orders are the
     * production engine's alone.
     */
    Brute,
    /**
     * The production engine (default), reads-from first after Tunc
     * et al. (PAPERS.md).  Po-derived relations are computed once
     * per path combo and rf-derived ones once per rf assignment, all
     * in the enumerator's arena; only the co stage runs per
     * candidate.  Infeasible rf prefixes are cut without expanding
     * their subtrees.  Coherence is then decided per rf:
     *
     *  - no location with two or more non-init writes: co is forced
     *    (init before each write) and the single order is delivered;
     *  - otherwise, when the model declares saturation support
     *    (Model::saturationSupport()), the forced part of co is
     *    saturated (relation/saturation.hh): a contradiction retires
     *    the rf with no candidate built, and only the linear
     *    extensions of the forced order are delivered — produced
     *    one at a time, so each is charged to the budget before it
     *    is built;
     *  - with no declared support every co permutation is delivered,
     *    so a caller that passes no SaturationSupport gets the full
     *    rf x co stream, in the brute engine's order within each rf.
     *
     * Every skipped candidate is one the model rejects, so raw
     * candidate counts are engine-specific but verdicts are not.
     */
    RfFirst,
};

/** Enumerates candidate executions of one program. */
class Enumerator
{
  public:
    /**
     * Per-stage search counters.
     *
     * Complete rf assignments are accounted exactly:
     *
     *   rfSpace = rfPruned + rfAssignments          (complete runs)
     *   rfAssignments = valuationRejects + rfConsistent
     *
     * and pruning is sound: a brute-force run of the same program
     * satisfies valuationRejects(brute) = valuationRejects(pruned)
     * + rfPruned(pruned) — every pruned assignment is one the full
     * valuation would have rejected.  The pruning counters
     * (rfPruned, coPruned, partialValuationRejects) are always zero
     * in EngineMode::Brute.
     */
    struct Stats
    {
        std::size_t pathCombos = 0;
        /** Complete rf assignments in the search space (expanded). */
        std::size_t rfSpace = 0;
        std::size_t rfAssignments = 0;
        std::size_t valuationRejects = 0;
        /** Complete rf assignments that passed the full valuation. */
        std::size_t rfConsistent = 0;
        /**
         * Complete rf assignments skipped because a prefix was
         * provably infeasible (expanded subtree size).
         */
        std::size_t rfPruned = 0;
        /**
         * Candidates (co permutations) of a consistent rf assignment
         * that were cut by an early stop — a tripped budget bound or
         * a callback that returned false — before being built.
         */
        std::size_t coPruned = 0;
        /** Number of infeasible-prefix cuts (prune events). */
        std::size_t partialValuationRejects = 0;
        std::size_t candidates = 0;

        // Saturation counters: zero in EngineMode::Brute and for
        // every rf the production engine does not saturate (no
        // declared support, or no location with two or more
        // non-init writes).  rfConsistent = rfSatRejects +
        // delivered-rf count; coFallbacks counts the saturated rfs
        // whose forced order was not total somewhere, i.e. the ones
        // that needed bounded co enumeration.

        /**
         * Consistent rf assignments rejected outright because
         * saturation derived a contradiction from the model's
         * communication axioms (every co extension is
         * model-rejected; no candidate was built).
         */
        std::size_t rfSatRejects = 0;
        /**
         * Forced co edges derived by saturation, beyond the
         * trivially-forced init edges, summed over rf assignments.
         */
        std::size_t coSatForced = 0;
        /**
         * Rf assignments the saturation could not fully decide: at
         * least one location's forced order was partial, so the
         * engine fell back to enumerating its linear extensions.
         */
        std::size_t coFallbacks = 0;
    };

    /**
     * Enumerate under a budget (the run stops at the first bound)
     * with the given engine.  `support` is the model's saturation
     * promise (Model::saturationSupport()); only EngineMode::RfFirst
     * uses it, and the default promises nothing.
     */
    explicit Enumerator(const Program &prog,
                        const RunBudget &budget = RunBudget::unlimited(),
                        EngineMode mode = EngineMode::RfFirst,
                        rel::SaturationSupport support = {})
        : prog_(prog), budget_(budget), mode_(mode), support_(support)
    {}

    /**
     * Visit every consistent candidate execution.
     *
     * A budgeted enumeration that trips a bound stops early and
     * reports Completeness::Truncated; the candidates delivered up
     * to that point are all valid.
     *
     * @param fn Called with each finalized candidate; return false
     *           to stop the enumeration early.
     */
    void forEach(const std::function<bool(const CandidateExecution &)> &fn);

    /** Collect all candidates (convenience for tests). */
    std::vector<CandidateExecution> all();

    const Stats &stats() const { return stats_; }

    /** Did the last forEach() see the whole search space? */
    Completeness completeness() const { return completeness_; }

    /** The bound that truncated the last forEach(), if any. */
    BoundKind trippedBound() const { return tripped_; }

  private:
    const Program &prog_;
    RunBudget budget_;
    EngineMode mode_;
    rel::SaturationSupport support_;
    Stats stats_;
    Completeness completeness_ = Completeness::Complete;
    BoundKind tripped_ = BoundKind::None;
    /**
     * Word storage for the production engine's derived relations:
     * fully reset at each path-combo boundary — the static-stage
     * lifetime — while the rf- and co-stage relations reuse their
     * allocations in place across reruns (see
     * CandidateExecution::ensureRel).  One arena per enumerator;
     * parallel sweeps hold one enumerator per worker.
     */
    RelationArena arena_;
};

} // namespace lkmm

#endif // LKMM_EXEC_ENUMERATE_HH

#include "lkmm/runner.hh"

#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace lkmm
{

namespace
{

/** A final state by value: (finalRegs, finalMem). */
using FinalState =
    std::pair<std::vector<std::vector<Value>>, std::vector<Value>>;

/**
 * Orders final states by value, and looks a candidate's up without
 * copying it out first.
 */
struct FinalStateLess
{
    using is_transparent = void;

    bool
    operator()(const FinalState &a, const FinalState &b) const
    {
        return a < b;
    }

    bool
    operator()(const FinalState &a, const CandidateExecution &b) const
    {
        return std::tie(a.first, a.second) <
            std::tie(b.finalRegs, b.finalMem);
    }

    bool
    operator()(const CandidateExecution &a, const FinalState &b) const
    {
        return std::tie(a.finalRegs, a.finalMem) <
            std::tie(b.first, b.second);
    }
};

/**
 * The one enumerate-and-filter loop.  The enumerator is handed the
 * model's saturation promises, since the production engine may only
 * skip candidates this very model rejects.  `fast` restricts the
 * work to what a bare verdict needs: only candidates whose
 * condition value could be decisive are checked against the model,
 * and enumeration stops at the first decisive one (witness for
 * exists, counterexample for forall).  An early stop leaves the
 * engine's completeness at Complete — the evidence found is
 * conclusive, the unexplored remainder cannot change it.
 */
RunResult
runCore(const Program &prog, const Model &model, const RunBudget &budget,
        bool fast, EngineMode mode)
{
    Enumerator en(prog, budget, mode, model.saturationSupport());
    RunResult res;
    const bool exists = prog.quantifier == Quantifier::Exists;
    bool counterexample = false;
    // Allowed final states by value; rendered once each at the end.
    std::set<FinalState, FinalStateLess> finalStates;

    en.forEach([&](const CandidateExecution &ex) {
        ++res.candidates;
        const bool cond = ex.satisfiesCondition();
        if (fast) {
            // Decisive candidates satisfy the condition for exists
            // tests and violate it for forall tests; nothing else
            // needs a model check.
            if (cond != exists)
                return true;
            if (!model.allows(ex))
                return true;
            if (cond) {
                ++res.witnesses;
                res.witness = ex;
            } else {
                counterexample = true;
            }
            return false;
        }
        auto violation = model.check(ex);
        if (!violation) {
            ++res.allowedCandidates;
            if (finalStates.find(ex) == finalStates.end())
                finalStates.emplace(ex.finalRegs, ex.finalMem);
            if (cond) {
                ++res.witnesses;
                if (!res.witness)
                    res.witness = ex;
            } else {
                counterexample = true;
            }
        } else if (cond && !res.sampleViolation) {
            res.sampleViolation = *violation;
            res.violationText = violation->toString(ex);
        }
        return true;
    });
    for (const FinalState &st : finalStates) {
        res.allowedFinalStates.insert(
            CandidateExecution::finalStateString(prog.locNames,
                                                 st.first, st.second));
    }
    res.completeness = en.completeness();
    res.trippedBound = en.trippedBound();
    res.stats = en.stats();

    if (exists) {
        if (res.witnesses > 0) {
            // A witness proves Allow even when the run truncated.
            res.verdict = Verdict::Allow;
        } else {
            res.verdict = res.truncated() ? Verdict::Unknown
                                          : Verdict::Forbid;
        }
    } else {
        // forall: Allow when every allowed candidate satisfies the
        // condition; a counterexample proves Forbid even truncated.
        if (counterexample)
            res.verdict = Verdict::Forbid;
        else
            res.verdict = res.truncated() ? Verdict::Unknown
                                          : Verdict::Allow;
    }
    return res;
}

} // namespace

RunResult
runTest(const Program &prog, const Model &model, const RunBudget &budget,
        EngineMode mode)
{
    return runCore(prog, model, budget, /*fast=*/false, mode);
}

Verdict
quickVerdict(const Program &prog, const Model &model,
             const RunBudget &budget, EngineMode mode)
{
    return runCore(prog, model, budget, /*fast=*/true, mode).verdict;
}

} // namespace lkmm

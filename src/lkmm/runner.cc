#include "lkmm/runner.hh"

namespace lkmm
{

namespace
{

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
            res.allowedFinalStates.insert(ex.finalStateString());
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

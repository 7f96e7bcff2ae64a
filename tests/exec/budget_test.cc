/**
 * @file
 * Budgeted enumeration: a diy-generated program with a large search
 * space trips the candidate/rf caps and reports a truncated,
 * bound-attributed result; re-running with a larger budget
 * completes.  Also covers the runner's graceful degradation to
 * Verdict::Unknown and the cat evaluator's step budget.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "base/budget.hh"
#include "base/status.hh"
#include "cat/eval.hh"
#include "diy/generator.hh"
#include "exec/enumerate.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

using namespace std::chrono_literals;

/**
 * A 4-thread, 8-event diy cycle (Rfe -> Po(R,W) four times): big
 * enough that its candidate count dwarfs any small cap we set.
 */
Program
bigDiyProgram()
{
    std::vector<DiyEdge> cycle;
    for (int i = 0; i < 4; ++i) {
        cycle.push_back(DiyEdge::rfe());
        cycle.push_back(DiyEdge::po(EvKind::Read, EvKind::Write));
    }
    std::optional<Program> prog = cycleToProgram(cycle);
    // The cycle is well-formed by construction.
    EXPECT_TRUE(prog.has_value());
    return *prog;
}

TEST(BudgetedEnumeration, CandidateCapTruncates)
{
    Program prog = bigDiyProgram();

    // Unbudgeted baseline.
    Enumerator full(prog);
    std::size_t total = 0;
    full.forEach([&](const CandidateExecution &) {
        ++total;
        return true;
    });
    EXPECT_EQ(full.completeness(), Completeness::Complete);
    EXPECT_EQ(full.trippedBound(), BoundKind::None);
    ASSERT_GT(total, 8u) << "search space too small for this test";

    // Capped run: exactly the cap is delivered, the run is reported
    // truncated, and the tripped bound is attributed.
    RunBudget b;
    b.maxCandidates = 8;
    Enumerator capped(prog, b);
    std::size_t seen = 0;
    capped.forEach([&](const CandidateExecution &) {
        ++seen;
        return true;
    });
    EXPECT_EQ(seen, 8u);
    EXPECT_EQ(capped.completeness(), Completeness::Truncated);
    EXPECT_EQ(capped.trippedBound(), BoundKind::Candidates);

    // Escalated re-run (the batch runner's retry policy) completes.
    RunBudget big = b.scaled(double(total));
    Enumerator retried(prog, big);
    std::size_t retried_n = 0;
    retried.forEach([&](const CandidateExecution &) {
        ++retried_n;
        return true;
    });
    EXPECT_EQ(retried_n, total);
    EXPECT_EQ(retried.completeness(), Completeness::Complete);
    EXPECT_EQ(retried.trippedBound(), BoundKind::None);
}

TEST(BudgetedEnumeration, ExactBudgetIsComplete)
{
    // A budget of exactly the candidate count must NOT report
    // truncation: the bound only fires when an (N+1)-th candidate
    // is attempted.
    Program prog = sb();
    Enumerator full(prog);
    const std::size_t total = full.all().size();
    ASSERT_GT(total, 0u);

    RunBudget b;
    b.maxCandidates = total;
    Enumerator exact(prog, b);
    EXPECT_EQ(exact.all().size(), total);
    EXPECT_EQ(exact.completeness(), Completeness::Complete);
    EXPECT_EQ(exact.trippedBound(), BoundKind::None);
}

TEST(BudgetedEnumeration, RfAssignmentCapTruncates)
{
    Program prog = bigDiyProgram();
    RunBudget b;
    b.maxRfAssignments = 2;
    Enumerator en(prog, b);
    en.forEach([](const CandidateExecution &) { return true; });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::RfAssignments);
    EXPECT_LE(en.stats().rfAssignments, 2u);
}

TEST(BudgetedEnumeration, ExpiredDeadlineTruncatesImmediately)
{
    Program prog = bigDiyProgram();
    RunBudget b;
    b.wallClock = 1ns;
    Enumerator en(prog, b);
    std::size_t seen = 0;
    en.forEach([&](const CandidateExecution &) {
        ++seen;
        return true;
    });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::WallClock);
}

TEST(BudgetedEnumeration, CancellationTruncates)
{
    Program prog = bigDiyProgram();
    CancelToken token;
    token.cancel();
    RunBudget b;
    b.cancel = &token;
    Enumerator en(prog, b);
    en.forEach([](const CandidateExecution &) { return true; });
    EXPECT_EQ(en.completeness(), Completeness::Truncated);
    EXPECT_EQ(en.trippedBound(), BoundKind::Cancelled);
}

// Runner degradation -------------------------------------------------

TEST(BudgetedRunner, TruncatedExistsDegradesToUnknown)
{
    // SB+mbs is Forbid under LKMM, but a run truncated before the
    // search space is exhausted cannot soundly say so.
    LkmmModel model;
    Program p = sbMbs();

    RunResult complete = runTest(p, model);
    ASSERT_EQ(complete.verdict, Verdict::Forbid);
    EXPECT_FALSE(complete.truncated());

    RunBudget b;
    b.maxCandidates = 1;
    RunResult truncated = runTest(p, model, b);
    EXPECT_TRUE(truncated.truncated());
    EXPECT_EQ(truncated.trippedBound, BoundKind::Candidates);
    EXPECT_EQ(truncated.verdict, Verdict::Unknown);
}

TEST(BudgetedRunner, WitnessStillProvesAllowWhenTruncated)
{
    // SB is Allow under LKMM with many witnesses; even a truncated
    // run that found one keeps the (sound) Allow verdict.  Use a
    // cap large enough that at least one witness is among the
    // delivered candidates but smaller than the full space.
    LkmmModel model;
    Program p = sb();
    RunResult complete = runTest(p, model);
    ASSERT_EQ(complete.verdict, Verdict::Allow);
    ASSERT_GT(complete.candidates, 1u);

    RunBudget b;
    b.maxCandidates = complete.candidates - 1;
    RunResult truncated = runTest(p, model, b);
    EXPECT_TRUE(truncated.truncated());
    if (truncated.witnesses > 0)
        EXPECT_EQ(truncated.verdict, Verdict::Allow);
    else
        EXPECT_EQ(truncated.verdict, Verdict::Unknown);
}

TEST(BudgetedRunner, QuickVerdictDegrades)
{
    LkmmModel model;
    Program p = sbMbs();
    RunBudget b;
    b.maxCandidates = 1;
    EXPECT_EQ(quickVerdict(p, model, b), Verdict::Unknown);
    EXPECT_EQ(quickVerdict(p, model), Verdict::Forbid);
    EXPECT_EQ(quickVerdict(sb(), model), Verdict::Allow);
}

// Many writes to one location ----------------------------------------

/**
 * Twelve single-write threads on x and no reads: nothing forces any
 * coherence order, so the rf assignment has 12! candidates.  The
 * exists clause is never satisfied, so no early witness ends the
 * run either — only the budget can.
 */
Program
twelveWriters()
{
    std::string src = "C W12\n{ x; }\n";
    for (int t = 0; t < 12; ++t) {
        src += "P" + std::to_string(t) + "(int *x)\n{\n    WRITE_ONCE(*x, " +
               std::to_string(t + 1) + ");\n}\n";
    }
    src += "exists (x=13)\n";
    return parseLitmus(src);
}

/** lkmm's axioms with no saturation promise: every co is enumerated. */
class LkmmNoSupport : public Model
{
  public:
    std::string name() const override { return "lkmm-no-support"; }
    std::optional<Violation>
    check(const CandidateExecution &ex) const override
    {
        return lkmm_.check(ex);
    }

  private:
    LkmmModel lkmm_;
};

TEST(BudgetedRunner, ManyWritersStopAtTheCandidateCap)
{
    const Program prog = twelveWriters();
    const LkmmModel lkmm;
    const LkmmNoSupport plain;
    for (const Model *model : {static_cast<const Model *>(&lkmm),
                               static_cast<const Model *>(&plain)}) {
        SCOPED_TRACE(model->name());
        RunBudget b;
        b.maxCandidates = 10;
        const auto start = std::chrono::steady_clock::now();
        const RunResult r = runTest(prog, *model, b);
        EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
        EXPECT_EQ(r.completeness, Completeness::Truncated);
        EXPECT_EQ(r.trippedBound, BoundKind::Candidates);
        EXPECT_EQ(r.candidates, 10u);
        EXPECT_EQ(r.verdict, Verdict::Unknown);
        // Every undelivered order of the one rf is counted as cut.
        EXPECT_EQ(r.stats.coPruned, 479001600u - 10u);
    }
}

TEST(BudgetedRunner, ManyWritersStopAtTheDeadline)
{
    const Program prog = twelveWriters();
    const LkmmModel lkmm;
    const LkmmNoSupport plain;
    for (const Model *model : {static_cast<const Model *>(&lkmm),
                               static_cast<const Model *>(&plain)}) {
        SCOPED_TRACE(model->name());
        RunBudget b;
        b.wallClock = 50ms;
        const auto start = std::chrono::steady_clock::now();
        const RunResult r = runTest(prog, *model, b);
        EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
        EXPECT_EQ(r.completeness, Completeness::Truncated);
        EXPECT_EQ(r.trippedBound, BoundKind::WallClock);
        EXPECT_EQ(r.verdict, Verdict::Unknown);
    }
}

// Cat evaluator step budget ------------------------------------------

TEST(EvalBudget, StepCapThrowsBudgetExceeded)
{
    // A partly-evaluated model has no sound partial verdict, so the
    // eval budget is a hard error, not a degradation.
    CatModel model = CatModel::fromSource(
        "let com = rf | co | fr\n"
        "acyclic po-loc | com as sc-per-location\n",
        "tiny");

    Program p = sb();
    Enumerator en(p);
    std::vector<CandidateExecution> exs = en.all();
    ASSERT_FALSE(exs.empty());

    // Unlimited works.
    (void)model.check(exs[0]);

    model.setEvalBudget(1);
    try {
        (void)model.check(exs[0]);
        FAIL() << "step budget did not trip";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::BudgetExceeded);
    }

    // A generous budget works again.
    model.setEvalBudget(1000000);
    (void)model.check(exs[0]);
}

} // namespace
} // namespace lkmm

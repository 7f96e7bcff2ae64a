/**
 * @file
 * The parallel verification engine's hard invariant: a sweep run
 * with IsolationMode::InProcessParallel produces a report with the
 * same per-test verdicts, counts and stats as a plain runTest loop
 * over the same tests — for every test in the Table 5 catalog — plus
 * the sweep-budget and cross-check behaviours under concurrency.
 * The reference is the runTest loop, not a one-worker BatchRunner,
 * because that runner is the very code path under test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "cat/eval.hh"
#include "lkmm/batch.hh"
#include "lkmm/catalog.hh"
#include "model/registry.hh"

namespace lkmm
{
namespace
{

/** Queue the whole Table 5 catalog. */
void
queueCatalog(BatchRunner &runner)
{
    for (const CatalogEntry &entry : table5())
        runner.add(entry.prog.name, entry.prog);
}

/** (verdict, candidates, completeness) for comparison. */
std::string
digestOf(const RunResult &r)
{
    return verdictName(r.verdict) + std::string(":") +
           std::to_string(r.candidates) + ":" +
           completenessName(r.completeness);
}

/** name → digestOf(result) over a report. */
std::map<std::string, std::string>
digest(const BatchReport &report)
{
    std::map<std::string, std::string> out;
    for (const BatchItemResult &r : report.results)
        out[r.name] = digestOf(r.result);
    return out;
}

/** The outside reference: runTest over the catalog, stats summed. */
struct Sequential
{
    std::map<std::string, std::string> digest;
    Enumerator::Stats stats;
};

Sequential
runCatalogSequentially(const Model &model)
{
    Sequential seq;
    for (const CatalogEntry &entry : table5()) {
        const RunResult r = runTest(entry.prog, model);
        seq.digest[entry.prog.name] = digestOf(r);
        seq.stats.candidates += r.stats.candidates;
        seq.stats.pathCombos += r.stats.pathCombos;
        seq.stats.rfAssignments += r.stats.rfAssignments;
    }
    return seq;
}

TEST(ParallelSweep, VerdictIdenticalToSequential)
{
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");

    const Sequential seq = runCatalogSequentially(*model);

    BatchOptions popts;
    popts.isolation = IsolationMode::InProcessParallel;
    popts.workers = 4;
    popts.modelFactory = reg.factoryFor("lkmm");
    BatchRunner parRunner(*model, popts);
    queueCatalog(parRunner);
    const BatchReport par = parRunner.run();

    // The tentpole invariant: same tests, same verdicts, same
    // candidate counts, same completeness — independent of thread
    // scheduling.
    EXPECT_EQ(digest(par), seq.digest);
    EXPECT_TRUE(par.failures.empty());
    ASSERT_EQ(par.results.size(), table5().size());

    // Report order is queue order, not completion order.
    for (std::size_t i = 0; i < par.results.size(); ++i)
        EXPECT_EQ(par.results[i].name, table5()[i].prog.name) << i;

    // Per-worker Enumerator stats merge into the same totals the
    // sequential loop accumulates.
    EXPECT_EQ(par.stats.candidates, seq.stats.candidates);
    EXPECT_EQ(par.stats.pathCombos, seq.stats.pathCombos);
    EXPECT_EQ(par.stats.rfAssignments, seq.stats.rfAssignments);

    // And the verdicts are the paper's.
    for (const CatalogEntry &entry : table5()) {
        const BatchItemResult *res = par.find(entry.prog.name);
        ASSERT_NE(res, nullptr) << entry.prog.name;
        EXPECT_EQ(res->result.verdict, entry.lkmmExpected)
            << entry.prog.name;
    }
}

TEST(ParallelSweep, WithoutFactorySharesTheConstructorModel)
{
    // modelFactory unset: workers share the constructor's instance,
    // which is sound for the stateless in-tree models — verdicts
    // still match the catalog.
    auto model = ModelRegistry::instance().make("lkmm");
    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 4;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();
    ASSERT_EQ(report.results.size(), table5().size());
    for (const CatalogEntry &entry : table5()) {
        const BatchItemResult *res = report.find(entry.prog.name);
        ASSERT_NE(res, nullptr) << entry.prog.name;
        EXPECT_EQ(res->result.verdict, entry.lkmmExpected)
            << entry.prog.name;
    }
}

TEST(ParallelSweep, CrossCheckDivergencesMatchSequential)
{
    // Parallel cross-check against a deliberately different model:
    // lkmm vs sc diverge on every weak-behaviour test, and the
    // parallel run must record exactly the sequential divergence set.
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");
    auto ref = reg.make("sc");

    // The reference divergence set, in catalog order: every test
    // whose two complete verdicts differ.
    std::vector<Divergence> seq;
    for (const CatalogEntry &entry : table5()) {
        const RunResult a = runTest(entry.prog, *model);
        const RunResult b = runTest(entry.prog, *ref);
        if (!a.truncated() && !b.truncated() && a.verdict != b.verdict)
            seq.push_back(
                Divergence{entry.prog.name, a.verdict, b.verdict});
    }

    BatchOptions popts;
    popts.crossCheck = ref.get();
    popts.isolation = IsolationMode::InProcessParallel;
    popts.workers = 4;
    popts.modelFactory = reg.factoryFor("lkmm");
    popts.crossCheckFactory = reg.factoryFor("sc");
    BatchRunner parRunner(*model, popts);
    queueCatalog(parRunner);
    const BatchReport par = parRunner.run();

    ASSERT_FALSE(seq.empty());
    ASSERT_EQ(par.divergences.size(), seq.size());
    for (std::size_t i = 0; i < par.divergences.size(); ++i) {
        EXPECT_EQ(par.divergences[i].test, seq[i].test);
        EXPECT_EQ(par.divergences[i].primary, seq[i].primary);
        EXPECT_EQ(par.divergences[i].reference, seq[i].reference);
    }
}

TEST(ParallelSweep, SweepBudgetStopsTheWholeSweep)
{
    // A sweep-wide candidate cap far below the catalog's total: the
    // sweep stops early, reports which bound fired, and leaves the
    // unfinished tests unrecorded (they would rerun on resume).
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");

    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 4;
    opts.modelFactory = reg.factoryFor("lkmm");
    opts.sweepBudget.maxCandidates = 1;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();

    EXPECT_EQ(report.sweepBound, BoundKind::Candidates);
    EXPECT_LT(report.results.size(), table5().size());
    // Whatever did get recorded is a real, untruncated verdict: a
    // sweep-budget trip cancels tests, it never degrades them.
    for (const BatchItemResult &r : report.results)
        EXPECT_EQ(r.result.completeness, Completeness::Complete)
            << r.name;
    EXPECT_NE(report.summary().find("sweep budget"),
              std::string::npos);
}

TEST(ParallelSweep, SweepBudgetAppliesToSequentialModesToo)
{
    // The same sweep budget stops the default one-worker sweep: the
    // API is one option, not a many-worker feature.
    auto model = ModelRegistry::instance().make("lkmm");
    BatchOptions opts;
    opts.sweepBudget.maxCandidates = 1;
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();
    EXPECT_EQ(report.sweepBound, BoundKind::Candidates);
    EXPECT_LT(report.results.size(), table5().size());
}

TEST(ParallelSweep, ExpiredSweepDeadlineStartsNoTest)
{
    // Each worker polls the sweep clock before starting a test, so a
    // deadline that has already passed stops the sweep before any
    // test reaches the per-test batch-item site.  A plan that never
    // fires counts those passages.
    faultinject::reset();
    faultinject::setPlan(
        faultinject::FaultPlan::parse("batch-item:1000:error"));
    auto model = ModelRegistry::instance().make("lkmm");
    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 4;
    opts.sweepBudget.wallClock = std::chrono::nanoseconds(1);
    BatchRunner runner(*model, opts);
    queueCatalog(runner);
    const BatchReport report = runner.run();
    const std::uint64_t started = faultinject::planHits();
    faultinject::reset();

    EXPECT_EQ(started, 0u);
    EXPECT_EQ(report.sweepBound, BoundKind::WallClock);
    EXPECT_TRUE(report.results.empty());
    EXPECT_TRUE(report.failures.empty());
}

TEST(ParallelSweep, ManyWorkersOnFewTestsIsSafe)
{
    // More workers than tests: slots and the pool must not deadlock
    // or double-assign.
    const ModelRegistry &reg = ModelRegistry::instance();
    auto model = reg.make("lkmm");
    BatchOptions opts;
    opts.isolation = IsolationMode::InProcessParallel;
    opts.workers = 16;
    opts.modelFactory = reg.factoryFor("lkmm");
    BatchRunner runner(*model, opts);
    runner.add("sb", sb());
    runner.add("mp", mp());
    const BatchReport report = runner.run();
    EXPECT_EQ(report.results.size(), 2u);
    EXPECT_TRUE(report.failures.empty());
}

} // namespace
} // namespace lkmm

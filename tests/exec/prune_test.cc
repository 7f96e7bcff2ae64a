/**
 * @file
 * Accounting tests for the production engine's pruning counters.
 *
 * The Stats identities documented on Enumerator::Stats are checked
 * for every paper-catalog program, in both engines:
 *
 *   rfSpace      = rfPruned + rfAssignments
 *   rfAssignments = valuationRejects + rfConsistent
 *
 * and across engines — with no saturation support, pruning only
 * skips work, it never changes what is delivered:
 *
 *   valuationRejects(brute) = valuationRejects(rf-first) + rfPruned
 *   rfSpace, rfConsistent, candidates, pathCombos identical
 *
 * In EngineMode::Brute every pruning counter must be exactly zero.
 */

#include <gtest/gtest.h>

#include "exec/enumerate.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

Enumerator::Stats
enumerate(const Program &prog, EngineMode mode)
{
    Enumerator en(prog, RunBudget::unlimited(), mode);
    en.forEach([](const CandidateExecution &) { return true; });
    return en.stats();
}

TEST(PruneAccounting, IdentitiesHoldPerCatalogTest)
{
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        for (EngineMode mode : {EngineMode::RfFirst, EngineMode::Brute}) {
            SCOPED_TRACE(mode == EngineMode::Brute ? "brute" : "rf-first");
            const Enumerator::Stats s = enumerate(entry.prog, mode);
            EXPECT_EQ(s.rfSpace, s.rfPruned + s.rfAssignments);
            EXPECT_EQ(s.rfAssignments,
                      s.valuationRejects + s.rfConsistent);
        }
    }
}

TEST(PruneAccounting, CountersZeroWhenPruningDisabled)
{
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const Enumerator::Stats s = enumerate(entry.prog, EngineMode::Brute);
        EXPECT_EQ(s.rfPruned, 0u);
        EXPECT_EQ(s.coPruned, 0u);
        EXPECT_EQ(s.partialValuationRejects, 0u);
        // Without cuts the visited space is exactly the assignments.
        EXPECT_EQ(s.rfSpace, s.rfAssignments);
    }
}

TEST(PruneAccounting, PruningOnlySkipsRejectedWork)
{
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const Enumerator::Stats on =
            enumerate(entry.prog, EngineMode::RfFirst);
        const Enumerator::Stats off =
            enumerate(entry.prog, EngineMode::Brute);
        EXPECT_EQ(on.pathCombos, off.pathCombos);
        EXPECT_EQ(on.rfSpace, off.rfSpace);
        EXPECT_EQ(on.rfConsistent, off.rfConsistent);
        EXPECT_EQ(on.candidates, off.candidates);
        // Every pruned assignment is one the brute-force engine
        // valuates and rejects.
        EXPECT_EQ(off.valuationRejects,
                  on.valuationRejects + on.rfPruned);
    }
}

TEST(PruneAccounting, CountersFlowThroughRunResult)
{
    LkmmModel model;
    for (const CatalogEntry &entry : table5()) {
        SCOPED_TRACE(entry.prog.name);
        const RunResult on = runTest(entry.prog, model);
        const RunResult off = runTest(entry.prog, model,
                                      RunBudget::unlimited(),
                                      EngineMode::Brute);
        EXPECT_EQ(on.verdict, off.verdict);
        EXPECT_EQ(on.stats.rfPruned + on.stats.rfAssignments,
                  on.stats.rfSpace);
        EXPECT_EQ(off.stats.rfPruned, 0u);
        EXPECT_EQ(off.stats.partialValuationRejects, 0u);
        EXPECT_EQ(on.stats.rfSpace, off.stats.rfSpace);
        EXPECT_EQ(on.stats.rfConsistent, off.stats.rfConsistent);
        EXPECT_EQ(on.candidates, on.stats.candidates);
        // Saturation only ever removes candidates the model rejects.
        EXPECT_LE(on.stats.candidates, off.stats.candidates);
    }
}

TEST(PruneAccounting, PruningActuallyFiresSomewhere)
{
    // The counters are only meaningful if the catalog exercises
    // them: at least one program must hit the partial-valuation cut.
    std::size_t total_pruned = 0;
    for (const CatalogEntry &entry : table5())
        total_pruned += enumerate(entry.prog, EngineMode::RfFirst).rfPruned;
    EXPECT_GT(total_pruned, 0u);
}

} // namespace
} // namespace lkmm

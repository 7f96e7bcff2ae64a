/**
 * @file
 * The golden conformance suite.
 *
 * tests/golden/catalog.json is a checked-in snapshot of what the
 * engine says about every test in the corpus (the paper catalog
 * plus the .litmus files): candidate count and verdict under every
 * registry builtin.  The suite diffs live results against the
 * snapshot, so ANY change to enumeration or model semantics —
 * intended or not — shows up as a failing diff, with the git
 * history of the snapshot as the audit trail.  Intentional changes
 * are recorded by rerunning the binary with --regen-golden, which
 * rewrites the snapshot in place (in the source tree) for review.
 *
 * The suite also locks down the production enumerator directly:
 * given no saturation support it must deliver exactly the
 * brute-force oracle's candidate multiset (rf witness, co witness,
 * final state — order-insensitive), and under every registry model
 * the same verdict — an oracle test of the pruning and staging
 * logic, not a snapshot.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"
#include "relation/arena.hh"

namespace lkmm
{
namespace
{

struct CorpusEntry
{
    std::string name;
    Program prog;
};

/**
 * The conformance corpus: every paper-catalog program, every
 * .litmus file in the tree, and the 4-/5-thread scaling corpus,
 * under stable sorted names.  File-backed entries are prefixed
 * "litmus/" (or "scale/") so they can never collide with a catalog
 * program of the same litmus name.
 */
std::vector<CorpusEntry>
corpus()
{
    std::vector<CorpusEntry> out;
    for (const CatalogEntry &e : table5())
        out.push_back({e.prog.name, e.prog});
    namespace fs = std::filesystem;
    for (const fs::directory_entry &de :
         fs::directory_iterator(LKMM_LITMUS_DIR)) {
        if (de.path().extension() != ".litmus")
            continue;
        out.push_back({"litmus/" + de.path().stem().string(),
                       parseLitmusFile(de.path().string())});
    }
    for (const fs::directory_entry &de :
         fs::directory_iterator(LKMM_SCALE_DIR)) {
        if (de.path().extension() != ".litmus")
            continue;
        out.push_back({"scale/" + de.path().stem().string(),
                       parseLitmusFile(de.path().string())});
    }
    std::sort(out.begin(), out.end(),
              [](const CorpusEntry &a, const CorpusEntry &b) {
                  return a.name < b.name;
              });
    return out;
}

/** Live snapshot of one corpus entry under every registry model. */
json::Value
liveEntry(const CorpusEntry &entry)
{
    const ModelRegistry &registry = ModelRegistry::instance();
    json::Object o;
    o["name"] = json::Value(entry.name);

    json::Object models;
    for (const ModelInfo &info : registry.listModels()) {
        RunResult res = runTest(entry.prog, *registry.make(info.name));
        models[info.name] = json::Value(verdictName(res.verdict));
    }
    // The model-free stream: runTest's counts depend on the model's
    // saturation support, this one does not.
    Enumerator en(entry.prog);
    en.forEach([](const CandidateExecution &) { return true; });
    o["candidates"] = json::Value(en.stats().candidates);
    o["verdict"] = models["lkmm"];
    o["models"] = json::Value(std::move(models));
    return json::Value(std::move(o));
}

json::Value
liveSnapshot()
{
    json::Array tests;
    for (const CorpusEntry &entry : corpus())
        tests.push_back(liveEntry(entry));
    json::Object root;
    root["tests"] = json::Value(std::move(tests));
    return json::Value(std::move(root));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/**
 * Order-insensitive fingerprint of a candidate stream: one line per
 * candidate (rf witness, co witness, final state), sorted.
 */
std::vector<std::string>
candidateFingerprints(const Program &prog, EngineMode mode)
{
    Enumerator en(prog, RunBudget::unlimited(), mode);
    std::vector<std::string> prints;
    en.forEach([&](const CandidateExecution &ex) {
        prints.push_back("rf=" + ex.rf.toString() +
                         " co=" + ex.co.toString() +
                         " final=" + ex.finalStateString());
        return true;
    });
    std::sort(prints.begin(), prints.end());
    return prints;
}

TEST(GoldenConformance, MatchesCheckedInSnapshot)
{
    const std::string golden_text = slurp(LKMM_GOLDEN_FILE);
    ASSERT_FALSE(golden_text.empty())
        << "missing golden snapshot " << LKMM_GOLDEN_FILE
        << "; regenerate with: conformance_test --regen-golden";

    const json::Value golden = json::Value::parse(golden_text);
    std::map<std::string, const json::Value *> golden_by_name;
    for (const json::Value &t : golden.get("tests")->asArray())
        golden_by_name[t.getString("name")] = &t;

    std::vector<std::string> live_names;
    for (const CorpusEntry &entry : corpus()) {
        live_names.push_back(entry.name);
        SCOPED_TRACE(entry.name);
        auto it = golden_by_name.find(entry.name);
        ASSERT_NE(it, golden_by_name.end())
            << "test missing from golden snapshot; rerun "
               "--regen-golden if it was added intentionally";
        const json::Value &want = *it->second;
        const json::Value have = liveEntry(entry);
        EXPECT_EQ(want.getInt("candidates"),
                  have.getInt("candidates"));
        EXPECT_EQ(want.getString("verdict"), have.getString("verdict"));
        for (const auto &[model, verdict] :
             want.get("models")->asObject()) {
            EXPECT_EQ(verdict.asString(),
                      have.get("models")->getString(model))
                << "verdict changed under model " << model;
        }
        // A model added to the registry must be re-snapshotted too.
        EXPECT_EQ(want.get("models")->asObject().size(),
                  have.get("models")->asObject().size());
    }
    // And nothing golden may silently drop out of the corpus.
    for (const auto &[name, t] : golden_by_name) {
        EXPECT_TRUE(std::find(live_names.begin(), live_names.end(),
                              name) != live_names.end())
            << "golden test '" << name << "' no longer in the corpus";
    }
}

/**
 * The arena growth paths, proven on the real corpus: with the first
 * chunk forced to a single word, every arena allocation the staged
 * finalize makes goes through the chunk-append logic, and the
 * production engine's model-free candidate stream must still match
 * the brute-force engine (which uses no arena at all) on every
 * corpus entry.
 */
TEST(GoldenConformance, TinyArenaGrowthPreservesFingerprints)
{
    RelationArena::setInitialWordsForTest(1);
    for (const CorpusEntry &entry : corpus()) {
        SCOPED_TRACE(entry.name);
        EXPECT_EQ(candidateFingerprints(entry.prog, EngineMode::RfFirst),
                  candidateFingerprints(entry.prog, EngineMode::Brute));
    }
    RelationArena::setInitialWordsForTest(0);
}

TEST(GoldenConformance, PruningPreservesCandidatesAndVerdicts)
{
    const ModelRegistry &registry = ModelRegistry::instance();
    for (const CorpusEntry &entry : corpus()) {
        SCOPED_TRACE(entry.name);
        EXPECT_EQ(candidateFingerprints(entry.prog, EngineMode::RfFirst),
                  candidateFingerprints(entry.prog, EngineMode::Brute));

        // The per-model RunResult comparison is skipped for scale/
        // entries: engine_identity_test performs the identical
        // brute-vs-rf-first comparison there, and the scale corpus is
        // expensive enough under sanitizers that paying for it twice
        // matters.  The full-multiset fingerprint check above still
        // covers every entry.  Raw candidate counts are not compared:
        // under a model with saturation support the production
        // engine skips candidates that model rejects.
        if (entry.name.rfind("scale/", 0) == 0)
            continue;
        for (const ModelInfo &info : registry.listModels()) {
            SCOPED_TRACE(info.name);
            RunResult on = runTest(entry.prog, *registry.make(info.name),
                                   RunBudget::unlimited(),
                                   EngineMode::RfFirst);
            RunResult off = runTest(entry.prog,
                                    *registry.make(info.name),
                                    RunBudget::unlimited(),
                                    EngineMode::Brute);
            EXPECT_EQ(on.verdict, off.verdict);
            EXPECT_EQ(on.allowedCandidates, off.allowedCandidates);
            EXPECT_EQ(on.witnesses, off.witnesses);
            EXPECT_EQ(on.allowedFinalStates, off.allowedFinalStates);
        }
    }
}

} // namespace
} // namespace lkmm

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--regen-golden") {
            const std::string out = lkmm::liveSnapshot().pretty();
            std::ofstream file(LKMM_GOLDEN_FILE);
            if (!file) {
                std::fprintf(stderr, "cannot write %s\n",
                             LKMM_GOLDEN_FILE);
                return 1;
            }
            file << out << "\n";
            std::fprintf(stderr, "wrote %s\n", LKMM_GOLDEN_FILE);
            return 0;
        }
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

/**
 * @file
 * scale-lkmm: a closed loop with one client that verifies the 17
 * committed 4/5-thread tests of tests/litmus/scale with runTest
 * under native lkmm and the default EngineConfig.  Enumeration and
 * the model check do nearly all the work.  The client runs whole
 * passes, every test once in a fresh order drawn from the seed.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "base/json.hh"
#include "base/rng.hh"
#include "exec/engine_config.hh"
#include "harness.hh"
#include "litmus/parser.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"

namespace perfbench
{

namespace
{

using lkmm::Verdict;

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 15;

struct ScaleTest
{
    std::string name;
    std::string source;
    std::string golden;
    std::size_t threads = 0;
};

/** What one verification of one test produced. */
struct Record
{
    Verdict verdict = Verdict::Unknown;
    lkmm::Enumerator::Stats stats;
    std::int64_t parseNs = 0;
    std::int64_t runNs = 0;
};

std::vector<ScaleTest>
loadTests()
{
    const lkmm::json::Value catalog =
        lkmm::json::Value::parse(readFile("tests/golden/catalog.json"));
    std::map<std::string, std::string> golden;
    for (const lkmm::json::Value &t : catalog.get("tests")->asArray()) {
        if (const lkmm::json::Value *models = t.get("models"))
            golden[t.getString("name")] = models->getString("lkmm");
    }

    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator("tests/litmus/scale")) {
        if (entry.path().extension() == ".litmus")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());

    std::vector<ScaleTest> tests;
    for (const std::string &path : paths) {
        ScaleTest t;
        t.name = std::filesystem::path(path).stem().string();
        t.source = readFile(path);
        t.threads = lkmm::parseLitmus(t.source).threads.size();
        auto it = golden.find("scale/" + t.name);
        if (it == golden.end() || it->second.empty())
            throw BenchFailure("no golden lkmm verdict for scale/" +
                               t.name);
        t.golden = it->second;
        tests.push_back(std::move(t));
    }
    if (tests.empty())
        throw BenchFailure("no tests under tests/litmus/scale");
    return tests;
}

Record
verify(const ScaleTest &t, const lkmm::Model &model,
       const lkmm::EngineConfig &engine)
{
    Record r;
    const std::int64_t t0 = nowNs();
    const lkmm::Program prog = lkmm::parseLitmus(t.source);
    const std::int64_t t1 = nowNs();
    const lkmm::RunResult res =
        lkmm::runTest(prog, model, engine.budget, engine.enumerate);
    const std::int64_t t2 = nowNs();
    r.verdict = res.verdict;
    r.stats = res.stats;
    r.parseNs = t1 - t0;
    r.runNs = t2 - t1;
    if (res.verdict != Verdict::Unknown &&
        lkmm::verdictName(res.verdict) != t.golden) {
        throw BenchFailure("scale/" + t.name + ": verdict " +
                           lkmm::verdictName(res.verdict) +
                           ", golden lkmm verdict " + t.golden);
    }
    return r;
}

} // namespace

Outcome
runScale(const Options &opts)
{
    const std::vector<ScaleTest> tests = loadTests();
    {
        std::vector<std::string> sources;
        for (const ScaleTest &t : tests)
            sources.push_back(t.source);
        printInputs("scale tests", sources);
    }

    const lkmm::EngineConfig engine; // the defaults a user gets
    const lkmm::ModelRegistry &registry = lkmm::ModelRegistry::instance();

    // Set-up, repeated: model construction, parsing the input set,
    // and one warm-up verification of every 4-thread test.
    std::vector<double> setups;
    std::unique_ptr<lkmm::Model> model;
    for (int k = 0; k < kSetups; ++k) {
        const Clock::time_point t0 = Clock::now();
        model = registry.make("lkmm");
        for (const ScaleTest &t : tests) {
            if (t.threads <= 4)
                verify(t, *model, engine);
            else
                lkmm::parseLitmus(t.source);
        }
        setups.push_back(secondsSince(t0));
    }

    // The client runs whole passes, every test once in a fresh
    // seeded order, with records kept by test index.  A traced run
    // alternates untraced passes with passes that hand runTest a
    // TimedModel.
    lkmm::Rng rng(opts.seed);
    std::vector<std::size_t> order(tests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    CheckTally tally;
    const TimedModel timed(registry.make("lkmm"), tally);
    Tracer tracer;
    Outcome out;
    const auto pass = [&](bool traced, std::uint64_t id,
                          std::vector<Record> &records) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        records.assign(tests.size(), Record{});
        const int passSpan =
            traced ? tracer.open("workload.pass", -1, id) : -1;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i : order) {
            const std::uint64_t ns0 = tally.ns, calls0 = tally.calls;
            const std::int64_t s0 = nowNs();
            const lkmm::Model &m =
                traced ? static_cast<const lkmm::Model &>(timed) : *model;
            records[i] = verify(tests[i], m, engine);
            if (traced) {
                const int runSpan = tracer.add(
                    "lkmm.runTest", s0, nowNs(), passSpan, id,
                    "\"test\":\"" + tests[i].name +
                        "\",\"model_check_ns\":" +
                        std::to_string(tally.ns - ns0) +
                        ",\"model_checks\":" +
                        std::to_string(tally.calls - calls0));
                tracer.add("litmus.parse", s0, s0 + records[i].parseNs,
                           runSpan, id);
            }
        }
        const double wall = secondsSince(t0);
        if (traced)
            tracer.finish(passSpan);
        out.attempted += tests.size();
        for (const Record &r : records)
            out.failed += r.verdict == Verdict::Unknown;
        return wall;
    };

    const Clock::time_point start = Clock::now();
    std::vector<Record> records, reference;
    std::vector<double> latencies;
    double untracedWall = 0, tracedWall = 0, parseNs = 0, runNs = 0;
    std::size_t untracedPasses = 0, tracedPasses = 0;
    lkmm::Enumerator::Stats stats;
    do {
        untracedWall += pass(false, ++untracedPasses, reference);
        if (!opts.trace) {
            for (const Record &r : reference)
                latencies.push_back((r.parseNs + r.runNs) / 1e6);
            continue;
        }
        tracedWall += pass(true, ++tracedPasses, records);
        for (std::size_t i = 0; i < tests.size(); ++i) {
            if (records[i].verdict != reference[i].verdict ||
                !statsEqual(records[i].stats, reference[i].stats)) {
                throw BenchFailure("scale/" + tests[i].name +
                                   ": traced run differs from untraced "
                                   "(verdict or Enumerator::Stats)");
            }
            parseNs += records[i].parseNs;
            runNs += records[i].runNs;
            statsAdd(stats, records[i].stats);
        }
    } while (secondsSince(start) < opts.seconds);

    if (!opts.trace) {
        std::printf("passes %zu over %.2f s\n", untracedPasses,
                    untracedWall);
        EndToEnd e;
        e.setupS = median(setups);
        e.testsPerS = static_cast<double>(latencies.size()) / untracedWall;
        e.latencyMs = summarize(latencies);
        e.okShare = 1.0 - static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
        e.peakRssMb = selfPeakRssMb();
        addEndToEnd(out, e);
        return out;
    }

    const double checkNs = static_cast<double>(tally.ns.load());
    const double checks = static_cast<double>(tally.calls.load());
    const double allowed = static_cast<double>(tally.allowed.load());
    const double passes = static_cast<double>(tracedPasses);
    const double runs = passes * tests.size();
    LayerTable table;
    table.add("litmus", parseNs, static_cast<std::uint64_t>(runs));
    table.add("exec", runNs - checkNs, static_cast<std::uint64_t>(runs));
    table.add("model", checkNs, static_cast<std::uint64_t>(checks));
    table.print("per-layer self time (traced passes):");

    LayerValues v;
    v["litmus.parse_calls"] = static_cast<double>(tests.size());
    v["litmus.parse_us"] = parseNs / 1e3 / runs;
    v["model.check_calls"] = checks / passes;
    v["model.check_ms"] = checkNs / 1e6 / passes;
    v["model.check_ns_per_call"] = checks > 0 ? checkNs / checks : 0;
    v["model.allowed_ratio"] = checks > 0 ? allowed / checks : 0;
    v["exec.self_ms"] = (runNs - checkNs) / 1e6 / passes;
    v["exec.path_combos"] = stats.pathCombos / passes;
    v["exec.rf_space"] = stats.rfSpace / passes;
    v["exec.rf_assignments"] = stats.rfAssignments / passes;
    v["exec.rf_pruned"] = stats.rfPruned / passes;
    v["exec.rf_consistent"] = stats.rfConsistent / passes;
    v["exec.rf_sat_rejects"] = stats.rfSatRejects / passes;
    v["exec.co_fallbacks"] = stats.coFallbacks / passes;
    v["exec.candidates"] = stats.candidates / passes;
    v["exec.rf_yield"] =
        stats.rfSpace ? static_cast<double>(stats.rfConsistent) /
                            static_cast<double>(stats.rfSpace)
                      : 0;
    v["lkmm.run_test_ms"] = runNs / 1e6 / runs;
    v["trace.overhead_share"] = tracedWall / untracedWall - 1.0;
    std::printf("traced passes %.0f, untraced %.3f s, traced %.3f s, "
                "spans %zu\n",
                passes, untracedWall, tracedWall, tracer.size());
    addLayers(out, v);
    tracer.writeChrome(opts.workDir + "/trace-scale-lkmm.json");
    return out;
}

} // namespace perfbench

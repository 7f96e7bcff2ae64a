/**
 * @file
 * diy-mine: a closed loop with one client that submits batches of
 * seeded diy tests to BatchRunner, in-process-parallel with
 * min(nproc, 4) workers and the sweep journal on, under native lkmm
 * with cat:lkmm.cat as the cross-check model — lkmm-sweep's
 * configuration for a mining run.  Per-test fixed costs and the cat
 * interpreter dominate.  One request is one batch over the input
 * set of 1200 tests.
 */

#include <sys/stat.h>

#include <cstdio>
#include <map>

#include "harness.hh"
#include "litmus/parser.hh"
#include "lkmm/batch.hh"
#include "model/registry.hh"

namespace perfbench
{

namespace
{

using lkmm::BatchReport;

/**
 * The batch: this many tests of each thread count.  Large enough
 * that a batch takes ~0.2 s on 4 cores, so a scheduler stall of a
 * few ms does not decide its latency.
 */
const std::map<std::size_t, std::size_t> kBatchShape = {{2, 1080},
                                                        {3, 120}};
/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 5;
const char *const kCatSpec = "cat:cat/models/lkmm.cat";

struct Models
{
    lkmm::ModelFactory native;
    lkmm::ModelFactory cat;
    std::unique_ptr<lkmm::Model> primary;
    std::unique_ptr<lkmm::Model> reference;
};

/** Every test ran, none failed, native and cat agreed. */
void
checkReport(const BatchReport &report, std::size_t tests)
{
    if (!report.failures.empty())
        throw BenchFailure("diy-mine: " + report.failures[0].toString());
    if (!report.divergences.empty())
        throw BenchFailure("diy-mine: native and cat diverge: " +
                           report.divergences[0].toString());
    if (report.results.size() != tests)
        throw BenchFailure("diy-mine: batch returned " +
                           std::to_string(report.results.size()) +
                           " results for " + std::to_string(tests) +
                           " tests");
}

std::size_t
unknowns(const BatchReport &report)
{
    std::size_t n = 0;
    for (const lkmm::BatchItemResult &r : report.results)
        n += r.result.verdict == lkmm::Verdict::Unknown;
    return n;
}

} // namespace

Outcome
runDiyMine(const Options &opts)
{
    lkmm::Rng rng(opts.seed);
    std::set<std::string> seen;
    const std::vector<std::string> sources =
        generateDiy(rng, kBatchShape, seen);
    printInputs("diy tests", sources);
    const lkmm::ModelRegistry &registry = lkmm::ModelRegistry::instance();
    const std::string journal = opts.workDir + "/diy-mine.journal";

    const auto runBatch = [&](const Models &m, std::size_t count) {
        lkmm::BatchOptions bo;
        bo.isolation = lkmm::IsolationMode::InProcessParallel;
        bo.workers = opts.parallelism;
        bo.modelFactory = m.native;
        bo.crossCheck = m.reference.get();
        bo.crossCheckFactory = m.cat;
        bo.journalPath = journal;
        bo.seed = opts.seed;
        lkmm::BatchRunner runner(*m.primary, bo);
        for (std::size_t i = 0; i < count; ++i)
            runner.addLitmusSource(std::to_string(i), sources[i]);
        BatchReport report = runner.run();
        checkReport(report, count);
        return report;
    };

    // Set-up, repeated: resolve both models (the cat spec loads and
    // validates lkmm.cat), build the reference instance, and run one
    // warm-up batch over the input set.
    std::vector<double> setups, catLoads;
    Models models;
    for (int k = 0; k < kSetups; ++k) {
        const Clock::time_point t0 = Clock::now();
        models.native = registry.factoryFor("lkmm");
        const Clock::time_point c0 = Clock::now();
        models.cat = registry.factoryFor(kCatSpec);
        models.reference = models.cat();
        catLoads.push_back(secondsSince(c0) * 1e3);
        models.primary = models.native();
        runBatch(models, sources.size());
        setups.push_back(secondsSince(t0));
    }

    Outcome out;
    const Clock::time_point start = Clock::now();
    if (!opts.trace) {
        std::vector<double> latencies;
        double busy = 0;
        do {
            const Clock::time_point t0 = Clock::now();
            const BatchReport report = runBatch(models, sources.size());
            const double wall = secondsSince(t0);
            busy += wall;
            latencies.push_back(wall * 1e3);
            out.attempted += sources.size();
            out.failed += unknowns(report);
        } while (secondsSince(start) < opts.seconds);
        std::printf("batches %zu of %zu tests over %.2f s\n",
                    latencies.size(), sources.size(), busy);

        EndToEnd e;
        e.setupS = median(setups);
        e.testsPerS = static_cast<double>(out.attempted) / busy;
        e.latencyMs = summarize(latencies);
        e.okShare = 1.0 - static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
        e.peakRssMb = selfPeakRssMb();
        addEndToEnd(out, e);
        return out;
    }

    // Traced run.  Untraced and traced batches alternate over the
    // same inputs; the traced ones get TimedModel factories for both
    // models.  A sequential replay of each test then times parse and
    // runTest from outside, which BatchRunner does not expose.
    CheckTally nativeTally, catTally, replayNative, replayCat;
    Models timed;
    timed.native = timedFactory(models.native, nativeTally);
    timed.cat = timedFactory(models.cat, catTally);
    timed.primary = timed.native();
    timed.reference = timed.cat();
    const lkmm::EngineConfig engine;
    const TimedModel replayNativeModel(models.native(), replayNative);
    const TimedModel replayCatModel(models.cat(), replayCat);

    Tracer tracer;
    double untracedWall = 0, tracedWall = 0, replayNs = 0;
    double parseNs = 0, nativeRunNs = 0, catRunNs = 0;
    double journalBytes = 0, retries = 0;
    std::size_t batches = 0;
    lkmm::Enumerator::Stats stats;
    do {
        Clock::time_point t0 = Clock::now();
        const BatchReport reference = runBatch(models, sources.size());
        untracedWall += secondsSince(t0);

        nativeTally.reset();
        catTally.reset();
        const std::int64_t b0 = nowNs();
        t0 = Clock::now();
        const BatchReport traced = runBatch(timed, sources.size());
        const double wall = secondsSince(t0);
        tracedWall += wall;
        const int batchSpan = tracer.add(
            "lkmm.BatchRunner.run", b0, nowNs(), -1, batches,
            "\"model_check_ns\":" + std::to_string(nativeTally.ns) +
                ",\"cat_check_ns\":" + std::to_string(catTally.ns));
        out.attempted += sources.size();
        out.failed += unknowns(traced);

        for (const lkmm::BatchItemResult &r : traced.results) {
            const lkmm::BatchItemResult *u = reference.find(r.name);
            if (!u || u->result.verdict != r.result.verdict ||
                !statsEqual(u->result.stats, r.result.stats)) {
                throw BenchFailure("diy-mine: traced batch differs from "
                                   "untraced on " + r.name +
                                   " (verdict or Enumerator::Stats)");
            }
            retries += (r.attempts - 1) + r.transientRetries;
        }
        statsAdd(stats, traced.stats);
        struct stat st {};
        if (::stat(journal.c_str(), &st) == 0)
            journalBytes += static_cast<double>(st.st_size);

        // The replay: per test, parse, then runTest under each model.
        const bool keepSpans = batches == 0;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            const std::int64_t p0 = nowNs();
            const lkmm::Program prog = lkmm::parseLitmus(sources[i]);
            const std::int64_t p1 = nowNs();
            lkmm::runTest(prog, replayNativeModel, engine.budget,
                          engine.enumerate);
            const std::int64_t p2 = nowNs();
            lkmm::runTest(prog, replayCatModel, engine.budget,
                          engine.enumerate);
            const std::int64_t p3 = nowNs();
            parseNs += p1 - p0;
            nativeRunNs += p2 - p1;
            catRunNs += p3 - p2;
            replayNs += p3 - p0;
            if (keepSpans) {
                const int test = tracer.add("workload.replay", p0, p3,
                                            batchSpan, i + 1);
                tracer.add("litmus.parse", p0, p1, test, i + 1);
                tracer.add("lkmm.runTest.native", p1, p2, test, i + 1);
                tracer.add("lkmm.runTest.cat", p2, p3, test, i + 1);
            }
        }
        ++batches;
    } while (secondsSince(start) < opts.seconds);

    const double n = static_cast<double>(batches);
    const double tests = n * static_cast<double>(sources.size());
    const double nativeNs = static_cast<double>(nativeTally.ns.load());
    const double nativeCalls = static_cast<double>(nativeTally.calls.load());
    const double catNs = static_cast<double>(catTally.ns.load());
    const double catCalls = static_cast<double>(catTally.calls.load());
    const double replayCheckNs =
        static_cast<double>(replayNative.ns + replayCat.ns);
    const double execNs = nativeRunNs + catRunNs - replayCheckNs;

    LayerTable table;
    table.add("litmus", parseNs, static_cast<std::uint64_t>(tests));
    table.add("exec", execNs, static_cast<std::uint64_t>(2 * tests));
    table.add("model", static_cast<double>(replayNative.ns.load()),
              replayNative.calls);
    table.add("cat", static_cast<double>(replayCat.ns.load()),
              replayCat.calls);
    table.print("per-layer self time (sequential replay):");
    const double nativePerCall = nativeCalls > 0 ? nativeNs / nativeCalls : 0;
    const double catPerCall = catCalls > 0 ? catNs / catCalls : 0;
    std::printf("last traced batch: native %.0f checks %.0f ns/check, "
                "cat %.0f checks %.0f ns/check; cat.tax base: native "
                "ns/check on the same candidates\n",
                nativeCalls, nativePerCall, catCalls, catPerCall);

    LayerValues v;
    v["litmus.parse_calls"] = static_cast<double>(sources.size());
    v["litmus.parse_us"] = parseNs / 1e3 / tests;
    v["model.check_calls"] = nativeCalls;
    v["model.check_ms"] = nativeNs / 1e6;
    v["model.check_ns_per_call"] = nativePerCall;
    v["model.allowed_ratio"] =
        nativeCalls > 0 ? static_cast<double>(nativeTally.allowed) /
                              nativeCalls
                        : 0;
    v["exec.self_ms"] = execNs / 1e6 / n;
    v["exec.path_combos"] = stats.pathCombos / n;
    v["exec.rf_space"] = stats.rfSpace / n;
    v["exec.rf_assignments"] = stats.rfAssignments / n;
    v["exec.rf_pruned"] = stats.rfPruned / n;
    v["exec.rf_consistent"] = stats.rfConsistent / n;
    v["exec.rf_sat_rejects"] = stats.rfSatRejects / n;
    v["exec.co_fallbacks"] = stats.coFallbacks / n;
    v["exec.candidates"] = stats.candidates / n;
    v["exec.rf_yield"] =
        stats.rfSpace ? static_cast<double>(stats.rfConsistent) /
                            static_cast<double>(stats.rfSpace)
                      : 0;
    v["cat.load_ms"] = median(catLoads);
    v["cat.check_calls"] = catCalls;
    v["cat.check_ms"] = catNs / 1e6;
    v["cat.check_ns_per_call"] = catPerCall;
    v["cat.tax"] = nativePerCall > 0 ? catPerCall / nativePerCall : 0;
    v["lkmm.run_test_ms"] = nativeRunNs / 1e6 / tests;
    v["lkmm.batch_run_s"] = tracedWall / n;
    v["lkmm.batch_busy_share"] =
        replayNs / 1e9 / (opts.parallelism * tracedWall);
    v["lkmm.journal_bytes"] = journalBytes / n;
    v["lkmm.retries"] = retries / n;
    v["lkmm.divergences"] = 0; // checkReport aborts on any
    v["trace.overhead_share"] = tracedWall / untracedWall - 1.0;
    std::printf("batches %zu, untraced %.3f s, traced %.3f s, spans %zu\n",
                batches, untracedWall, tracedWall, tracer.size());
    addLayers(out, v);
    tracer.writeChrome(opts.workDir + "/trace-diy-mine.json");
    return out;
}

} // namespace perfbench

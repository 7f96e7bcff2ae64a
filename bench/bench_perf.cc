/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * relational algebra (closures, sequencing), candidate enumeration,
 * model checking (native vs cat-interpreted), and the operational
 * machines.  These are throughput numbers for the substrate, not a
 * paper table.
 */

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>

#include <benchmark/benchmark.h>

#include "cat/eval.hh"
#include "exec/engine_config.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/c11_model.hh"
#include "model/lkmm_model.hh"
#include "model/power_model.hh"
#include "sim/machine.hh"

namespace
{

using namespace lkmm;

Relation
denseRelation(std::size_t n, unsigned seed)
{
    Relation r(n);
    unsigned state = seed * 2654435761u + 1u;
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            state = state * 1664525u + 1013904223u;
            if ((state >> 28) < 4)
                r.add(a, b);
        }
    }
    return r;
}

void
BM_RelationTransitiveClosure(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Relation r = denseRelation(n, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.plus());
}
BENCHMARK(BM_RelationTransitiveClosure)->Arg(16)->Arg(32)->Arg(64);

void
BM_RelationSequence(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Relation a = denseRelation(n, 1);
    Relation b = denseRelation(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.seq(b));
}
BENCHMARK(BM_RelationSequence)->Arg(16)->Arg(64);

void
BM_EnumerateCandidates(benchmark::State &state)
{
    Program p = wrcPoRelRmb();
    for (auto _ : state) {
        Enumerator en(p);
        std::size_t count = 0;
        en.forEach([&](const CandidateExecution &) {
            ++count;
            return true;
        });
        benchmark::DoNotOptimize(count);
    }
}
BENCHMARK(BM_EnumerateCandidates);

/**
 * End-to-end candidate throughput over the whole Table 5 catalog.
 * Arg 0: engine — 0 brute force, 1 rf-first (the default) with no
 * saturation support, i.e. the full model-free candidate stream.
 * CI gates 1-vs-0 from BENCH_enumerate.json.
 */
void
BM_EnumerateCatalog(benchmark::State &state)
{
    const EngineMode mode =
        state.range(0) == 0 ? EngineMode::Brute : EngineMode::RfFirst;
    std::vector<CatalogEntry> entries = table5();
    std::size_t candidates = 0;
    for (auto _ : state) {
        for (const CatalogEntry &entry : entries) {
            Enumerator en(entry.prog, RunBudget::unlimited(), mode);
            en.forEach([](const CandidateExecution &) { return true; });
            candidates += en.stats().candidates;
        }
    }
    benchmark::DoNotOptimize(candidates);
    state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_EnumerateCatalog)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Programs bucketed by thread count: the 2-/3-thread buckets come
 * from the Table 5 catalog, the 4-/5-thread buckets from the
 * committed scaling corpus (tests/litmus/scale/).
 */
const std::vector<Program> &
threadBucket(int threads)
{
    static std::map<int, std::vector<Program>> byThreads = [] {
        std::map<int, std::vector<Program>> out;
        for (const CatalogEntry &e : table5())
            out[static_cast<int>(e.prog.threads.size())].push_back(
                e.prog);
        namespace fs = std::filesystem;
        for (const fs::directory_entry &de :
             fs::directory_iterator(LKMM_SCALE_DIR)) {
            if (de.path().extension() != ".litmus")
                continue;
            Program p = parseLitmusFile(de.path().string());
            out[static_cast<int>(p.threads.size())].push_back(
                std::move(p));
        }
        return out;
    }();
    return byThreads.at(threads);
}

/**
 * End-to-end verification (enumeration plus model checking, full
 * verdict) under the lkmm model, as a thread-count scaling curve.
 * Arg 0: engine — 0 brute force, 1 rf-first (the default).  Arg 1:
 * thread-count bucket (2/3/4/5).  This is deliberately runTest and
 * not bare enumeration: rf-first's win is the model checks it never
 * issues for saturation-rejected rf assignments, so an
 * enumeration-only benchmark would hide it.  CI gates rf-first >= 4x
 * brute on the combined 4+-thread bucket from BENCH_enumerate.json.
 */
void
BM_VerifyScale(benchmark::State &state)
{
    static const char *const modes[] = {"brute", "rf-first"};
    EngineConfig cfg;
    cfg.setMode(modes[state.range(0)]);
    const std::vector<Program> &progs =
        threadBucket(static_cast<int>(state.range(1)));
    LkmmModel model;
    std::size_t candidates = 0;
    for (auto _ : state) {
        for (const Program &p : progs) {
            RunResult res = runTest(p, model, RunBudget::unlimited(),
                                    cfg.enumerate);
            candidates += res.candidates;
        }
    }
    benchmark::DoNotOptimize(candidates);
    state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_VerifyScale)
    ->ArgsProduct({{0, 1}, {2, 3, 4, 5}})
    ->Unit(benchmark::kMillisecond);

void
BM_LkmmCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    LkmmModel model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * execs.size()));
}
BENCHMARK(BM_LkmmCheck);

/**
 * The value-semantics LKMM check: buildRelations() plus
 * Relation::findCycle and the value helpers, axioms in the paper's
 * order.  What LkmmModel::check() computed before it moved to the
 * kernels; the baseline of BM_LkmmCheckScale.
 */
std::optional<Violation>
referenceLkmmCheck(const LkmmModel &model, const CandidateExecution &ex)
{
    const LkmmRelations r = model.buildRelations(ex);
    if (auto c = (ex.poLoc() | ex.com()).findCycle())
        return Violation{"sc-per-variable", *c};
    const Relation at = ex.rmw & ex.fre().seq(ex.coe());
    if (!at.empty()) {
        const auto first = at.pairs().front();
        return Violation{"atomicity", {first.first, first.second}};
    }
    if (auto c = r.hb.findCycle())
        return Violation{"happens-before", *c};
    if (auto c = r.pb.findCycle())
        return Violation{"propagates-before", *c};
    if (model.config().rcuAxiom) {
        for (EventId e = 0; e < ex.numEvents(); ++e) {
            if (r.rcuPath.contains(e, e))
                return Violation{"rcu", {e}};
        }
    }
    return std::nullopt;
}

/**
 * Per-candidate LKMM check cost on the 4-/5-thread scale corpus, in
 * the order the rf-first engine delivers the candidates (so the
 * native check's rf-stage memo sees what it sees under runTest).
 * Arg 0: 0 the value-semantics reference above, 1 the native
 * LkmmModel::check().  Only the check is timed (manual time); the
 * enumeration around it is not.  CI gates 1-vs-0 from
 * BENCH_enumerate.json.
 */
void
BM_LkmmCheckScale(benchmark::State &state)
{
    const bool native = state.range(0) == 1;
    std::vector<Program> progs = threadBucket(4);
    for (const Program &p : threadBucket(5))
        progs.push_back(p);
    const LkmmModel model;
    std::size_t checks = 0, allowed = 0;
    for (auto _ : state) {
        std::chrono::steady_clock::duration spent{};
        for (const Program &p : progs) {
            Enumerator en(p, RunBudget::unlimited(), EngineMode::RfFirst,
                          model.saturationSupport());
            en.forEach([&](const CandidateExecution &ex) {
                const auto t0 = std::chrono::steady_clock::now();
                const bool ok = native
                    ? !model.check(ex).has_value()
                    : !referenceLkmmCheck(model, ex).has_value();
                spent += std::chrono::steady_clock::now() - t0;
                allowed += ok;
                ++checks;
                return true;
            });
        }
        state.SetIterationTime(
            std::chrono::duration<double>(spent).count());
    }
    benchmark::DoNotOptimize(allowed);
    state.SetItemsProcessed(static_cast<std::int64_t>(checks));
}
BENCHMARK(BM_LkmmCheckScale)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void
BM_CatLkmmCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    auto model = CatModel::fromFile(
        std::string(LKMM_CAT_MODEL_DIR) + "/lkmm.cat");
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * execs.size()));
}
BENCHMARK(BM_CatLkmmCheck);

void
BM_PowerCheck(benchmark::State &state)
{
    Program p = peterZ();
    Enumerator en(p);
    auto execs = en.all();
    PowerModel model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
}
BENCHMARK(BM_PowerCheck);

void
BM_C11Check(benchmark::State &state)
{
    Program p = rwcMbs();
    Enumerator en(p);
    auto execs = en.all();
    C11Model model;
    for (auto _ : state) {
        for (const auto &ex : execs)
            benchmark::DoNotOptimize(model.allows(ex));
    }
}
BENCHMARK(BM_C11Check);

void
BM_OperationalMachineRun(benchmark::State &state)
{
    Program p = sb();
    OperationalMachine machine(p, MachineConfig::power());
    std::uint64_t seed = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.run(++seed));
}
BENCHMARK(BM_OperationalMachineRun);

void
BM_FullTestVerdict(benchmark::State &state)
{
    Program p = rcuMp();
    LkmmModel model;
    for (auto _ : state)
        benchmark::DoNotOptimize(quickVerdict(p, model));
}
BENCHMARK(BM_FullTestVerdict);

} // namespace

BENCHMARK_MAIN();

#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "diy/generator.hh"
#include "litmus/parser.hh"
#include "litmus/printer.hh"

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Outcome::add(const std::string &name, const std::string &unit,
             double value)
{
    metrics.push_back({name, unit, value});
}

namespace
{

/** Nearest-rank percentile of a sorted sample. */
double
rank(const std::vector<double> &sorted, double pct)
{
    std::size_t idx = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    idx = std::clamp<std::size_t>(idx, 1, sorted.size());
    return sorted[idx - 1];
}

} // namespace

Dist
summarize(std::vector<double> values)
{
    Dist d;
    d.samples = values.size();
    if (values.empty())
        return d;
    std::sort(values.begin(), values.end());
    d.p50 = rank(values, 50);
    d.tail = values.back();
    d.tailPercentile = 100;
    static const double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 50};
    for (double pct : kLadder) {
        const double beyond =
            std::floor(static_cast<double>(values.size()) *
                       (100.0 - pct) / 100.0 + 1e-9);
        if (beyond >= 10) {
            d.tail = rank(values, pct);
            d.tailPercentile = pct;
            break;
        }
    }
    return d;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string
describe(const Dist &d, const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p%g %.4g %s (n=%zu)",
                  d.p50, unit, d.tailPercentile, d.tail, unit,
                  d.samples);
    return buf;
}

std::string
digestOf(const std::vector<std::string> &inputs)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string &s : inputs) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= 0xff; // separator: ["ab","c"] and ["a","bc"] differ
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

void
printInputs(const char *label, const std::vector<std::string> &sources)
{
    std::map<std::size_t, int> hist;
    for (const std::string &s : sources)
        ++hist[lkmm::parseLitmus(s).threads.size()];
    std::printf("inputs: %zu %s, digest %s, threads:", sources.size(),
                label, digestOf(sources).c_str());
    for (const auto &[threads, n] : hist)
        std::printf(" %zu:%d", threads, n);
    std::printf("\n");
}

std::vector<std::string>
generateDiy(lkmm::Rng &rng, std::map<std::size_t, std::size_t> perThreads,
            std::set<std::string> &seen)
{
    const std::vector<lkmm::DiyEdge> alphabet = lkmm::defaultAlphabet();
    std::size_t wanted = 0;
    for (const auto &[threads, n] : perThreads)
        wanted += n;
    std::vector<std::string> out;
    for (std::size_t draws = 0; out.size() < wanted; ++draws) {
        if (draws > 1000 * wanted + 100000)
            throw BenchFailure("diy generator ran out of distinct tests");
        std::optional<lkmm::Program> prog = lkmm::randomCycle(rng, alphabet);
        if (!prog)
            continue;
        std::size_t &left = perThreads[prog->threads.size()];
        if (left == 0)
            continue;
        std::string source = lkmm::printLitmus(*prog);
        if (seen.insert(source).second) {
            out.push_back(std::move(source));
            --left;
        }
    }
    return out;
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

using Stats = lkmm::Enumerator::Stats;

std::size_t Stats::*const kStatsFields[] = {
    &Stats::pathCombos,      &Stats::rfSpace,
    &Stats::rfAssignments,   &Stats::valuationRejects,
    &Stats::rfConsistent,    &Stats::rfPruned,
    &Stats::coPruned,        &Stats::partialValuationRejects,
    &Stats::candidates,      &Stats::rfSatRejects,
    &Stats::coSatForced,     &Stats::coFallbacks,
};

} // namespace

bool
statsEqual(const Stats &a, const Stats &b)
{
    for (auto field : kStatsFields) {
        if (a.*field != b.*field)
            return false;
    }
    return true;
}

void
statsAdd(Stats &into, const Stats &s)
{
    for (auto field : kStatsFields)
        into.*field += s.*field;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw BenchFailure("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/* ------------------------------------------------------------------ */

int
Tracer::add(std::string name, std::int64_t startNs, std::int64_t endNs,
            int parent, std::uint64_t request, std::string args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return -1;
    }
    spans_.push_back({std::move(name), startNs, endNs, parent, request,
                      std::move(args)});
    return static_cast<int>(spans_.size() - 1);
}

int
Tracer::open(std::string name, int parent, std::uint64_t request)
{
    return add(std::move(name), nowNs(), 0, parent, request);
}

void
Tracer::finish(int id, std::string args)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0)
        return;
    spans_[id].endNs = end;
    spans_[id].args = std::move(args);
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw BenchFailure("cannot write trace " + path);
    const std::int64_t base = spans_.empty() ? 0 : spans_[0].startNs;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"request\":%" PRIu64 "%s%s}}\n",
                     i ? "," : "", s.name.c_str(), s.request,
                     static_cast<double>(s.startNs - base) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     s.parent, s.request, s.args.empty() ? "" : ",",
                     s.args.c_str());
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    std::fclose(f);
    std::printf("trace: %zu spans written, %zu dropped past the cap\n",
                spans_.size(), dropped_);
}

/* ------------------------------------------------------------------ */

void
LayerTable::add(const std::string &layer, double ns, std::uint64_t calls)
{
    Row &r = rows_[layer];
    r.ns += ns;
    r.calls += calls;
}

void
LayerTable::print(const char *title) const
{
    double total = 0;
    for (const auto &[name, r] : rows_)
        total += r.ns;
    std::printf("%s\n  %-8s %12s %12s %7s\n", title, "layer", "calls",
                "self ms", "share");
    for (const auto &[name, r] : rows_) {
        std::printf("  %-8s %12" PRIu64 " %12.3f %6.1f%%\n", name.c_str(),
                    r.calls, r.ns / 1e6,
                    total > 0 ? 100.0 * r.ns / total : 0.0);
    }
}

/* ------------------------------------------------------------------ */

void
CheckTally::reset()
{
    calls = 0;
    ns = 0;
    allowed = 0;
}

std::optional<lkmm::Violation>
TimedModel::check(const lkmm::CandidateExecution &ex) const
{
    const std::int64_t t0 = nowNs();
    std::optional<lkmm::Violation> v = inner_->check(ex);
    const std::int64_t t1 = nowNs();
    tally_.calls.fetch_add(1, std::memory_order_relaxed);
    tally_.ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                        std::memory_order_relaxed);
    if (!v)
        tally_.allowed.fetch_add(1, std::memory_order_relaxed);
    return v;
}

lkmm::ModelFactory
timedFactory(lkmm::ModelFactory inner, CheckTally &tally)
{
    return [inner = std::move(inner), &tally] {
        return std::make_unique<TimedModel>(inner(), tally);
    };
}

} // namespace perfbench

/* ------------------------------------------------------------------ */

namespace perfbench
{

void
addEndToEnd(Outcome &out, const EndToEnd &e)
{
    std::printf("end-to-end: setup %.4f s, %.2f tests/s, latency %s, "
                "ok share %.4f, peak rss %.1f MiB\n",
                e.setupS, e.testsPerS, describe(e.latencyMs, "ms").c_str(),
                e.okShare, e.peakRssMb);
    out.add("setup_s", "s", e.setupS);
    out.add("tests_per_s", "1/s", e.testsPerS);
    out.add("latency_p50_ms", "ms", e.latencyMs.p50);
    out.add("latency_tail_ms", "ms", e.latencyMs.tail);
    out.add("ok_share", "share", e.okShare);
    out.add("peak_rss_mb", "MiB", e.peakRssMb);
}

namespace
{

struct LayerMetric
{
    const char *name;
    const char *unit;
};

const LayerMetric kLayerMetrics[] = {
    {"litmus.parse_calls", "count"},
    {"litmus.parse_us", "us"},
    {"model.check_calls", "count"},
    {"model.check_ms", "ms"},
    {"model.check_ns_per_call", "ns"},
    {"model.allowed_ratio", "ratio"},
    {"exec.self_ms", "ms"},
    {"exec.path_combos", "count"},
    {"exec.rf_space", "count"},
    {"exec.rf_assignments", "count"},
    {"exec.rf_pruned", "count"},
    {"exec.rf_consistent", "count"},
    {"exec.rf_sat_rejects", "count"},
    {"exec.co_fallbacks", "count"},
    {"exec.candidates", "count"},
    {"exec.rf_yield", "ratio"},
    {"cat.load_ms", "ms"},
    {"cat.check_calls", "count"},
    {"cat.check_ms", "ms"},
    {"cat.check_ns_per_call", "ns"},
    {"cat.tax", "ratio"},
    {"lkmm.run_test_ms", "ms"},
    {"lkmm.batch_run_s", "s"},
    {"lkmm.batch_busy_share", "ratio"},
    {"lkmm.journal_bytes", "bytes"},
    {"lkmm.retries", "count"},
    {"lkmm.divergences", "count"},
    {"serve.start_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_tail_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.miss_tail_ms", "ms"},
    {"serve.miss_overhead_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.round_miss_share", "ratio"},
    {"serve.cache_insertions", "count"},
    {"serve.cache_journal_bytes", "bytes"},
    {"serve.cache_compactions", "count"},
    {"serve.shed_queue_full", "count"},
    {"serve.shed_deadline", "count"},
    {"serve.worker_crashes", "count"},
    {"serve.worker_timeouts", "count"},
    {"serve.errors", "count"},
    {"serve.generator_late_ms", "ms"},
    {"serve.open_loop_max_rate_rps", "1/s"},
    {"trace.overhead_share", "ratio"},
};

} // namespace

void
addLayers(Outcome &out, const LayerValues &values)
{
    for (const auto &[name, value] : values) {
        bool known = false;
        for (const LayerMetric &m : kLayerMetrics)
            known = known || name == m.name;
        if (!known)
            throw std::logic_error("undeclared layer metric " + name);
    }
    std::printf("per-layer metrics:\n");
    for (const LayerMetric &m : kLayerMetrics) {
        auto it = values.find(m.name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("  %-28s %14.6g %s%s\n", m.name, v, m.unit,
                    it == values.end() ? "  (not on this path)" : "");
        out.add(m.name, m.unit, v);
    }
}

} // namespace perfbench

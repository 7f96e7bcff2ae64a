/**
 * @file
 * Shared pieces of the lkmm-herd benchmark: options, the result
 * record every workload fills in, latency summaries, input digests,
 * the span recorder behind --trace 1, and the timing Model
 * decorator the traced runs hand to the runner.
 *
 * Everything here lives outside the verifier: the benchmark times
 * calls into the public API of each layer from its own files.
 */

#ifndef LKMM_PERFBENCH_HARNESS_HH
#define LKMM_PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "exec/enumerate.hh"
#include "model/model.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock since an arbitrary epoch. */
std::int64_t nowNs();

/** Seconds elapsed since t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Scratch directory for this run (journals, sockets, traces). */
    std::string workDir;
    /** The lkmm-serve daemon binary (serve-mixed only). */
    std::string serveBin;
    /** Parallel clients/workers: min(nproc, 4). */
    int parallelism = 1;
};

/** A wrong verdict or a broken invariant: aborts the run. */
struct BenchFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** One named, unit-carrying number of the final JSON line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** What a workload reports. */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value);
};

/**
 * Median and tail of a latency sample.  The tail is the highest
 * percentile of a fixed ladder that still has at least ten samples
 * beyond it; with fewer than twenty samples it is the maximum.
 */
struct Dist
{
    double p50 = 0;
    double tail = 0;
    double tailPercentile = 100;
    std::size_t samples = 0;
};

Dist summarize(std::vector<double> values);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> values);

/** "p50 1.23 ms, p99 4.56 ms (n=1234)". */
std::string describe(const Dist &d, const char *unit);

/** FNV-1a digest of an ordered input set, as 16 hex digits. */
std::string digestOf(const std::vector<std::string> &inputs);

/**
 * Print an input set's size, digest and thread-count histogram, so
 * two runs can be shown to have used the same inputs.
 */
void printInputs(const char *label, const std::vector<std::string> &sources);

/**
 * Seeded diy inputs: randomCycle(defaultAlphabet()) programs,
 * printed with printLitmus and deduplicated against `seen` (which
 * grows).  `perThreads` fixes how many tests of each thread count
 * to draw, so every seed yields an input set of the same shape;
 * throws BenchFailure when a draw cap is reached first.
 */
std::vector<std::string>
generateDiy(lkmm::Rng &rng, std::map<std::size_t, std::size_t> perThreads,
            std::set<std::string> &seen);

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** Every Enumerator::Stats field, for equality checks and sums. */
bool statsEqual(const lkmm::Enumerator::Stats &a,
                const lkmm::Enumerator::Stats &b);
void statsAdd(lkmm::Enumerator::Stats &into,
              const lkmm::Enumerator::Stats &s);

/** Read a whole file; throws BenchFailure when it cannot. */
std::string readFile(const std::string &path);

/**
 * In-memory span recorder for traced runs.  Spans carry a name, a
 * start and end, the span that caused them and a request id; they
 * are written once, at exit, as Chrome trace-event JSON.  Past
 * kMaxSpans further spans are counted and dropped (id -1), which
 * bounds memory and the trace file.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint64_t request = 0;
        /** Extra "args" fields, already JSON-encoded ("k":v,...). */
        std::string args;
    };

    static constexpr std::size_t kMaxSpans = 200000;

    /** Record a finished span; returns its id. */
    int add(std::string name, std::int64_t startNs, std::int64_t endNs,
            int parent, std::uint64_t request, std::string args = {});

    /** Reserve a span whose end is filled in later by finish(). */
    int open(std::string name, int parent, std::uint64_t request);
    void finish(int id, std::string args = {});

    std::size_t size() const;

    /** Chrome trace-event JSON ("X" events, one tid per request). */
    void writeChrome(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::size_t dropped_ = 0;
};

/**
 * Per-layer self-time accumulator behind the printed table: busy
 * nanoseconds and call counts per layer name.
 */
class LayerTable
{
  public:
    void add(const std::string &layer, double ns, std::uint64_t calls);
    /** Print "layer  calls  self ms  share" rows to stdout. */
    void print(const char *title) const;

  private:
    struct Row
    {
        double ns = 0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, Row> rows_;
};

/** Counters a TimedModel charges; shared by every instance of one
 *  factory, so they are atomic. */
struct CheckTally
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> allowed{0};

    void reset();
};

/**
 * A Model that forwards to another and times each check().  It
 * forwards saturationSupport() too: without it the rf-first engine
 * would see no soundness promises and silently lose its pruning, so
 * a traced run would measure a different search than an untraced
 * one.
 */
class TimedModel : public lkmm::Model
{
  public:
    TimedModel(std::unique_ptr<lkmm::Model> inner, CheckTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    std::string name() const override { return inner_->name(); }

    std::optional<lkmm::Violation>
    check(const lkmm::CandidateExecution &ex) const override;

    lkmm::rel::SaturationSupport
    saturationSupport() const override
    {
        return inner_->saturationSupport();
    }

  private:
    std::unique_ptr<lkmm::Model> inner_;
    CheckTally &tally_;
};

/** Wrap a factory so every instance it builds is a TimedModel. */
lkmm::ModelFactory timedFactory(lkmm::ModelFactory inner,
                                CheckTally &tally);

/** The end-to-end metrics every untraced run reports. */
struct EndToEnd
{
    /** Median of the run's repeated set-ups, in seconds. */
    double setupS = 0;
    /** Verdicts delivered per second. */
    double testsPerS = 0;
    /** Per-request latency, in milliseconds. */
    Dist latencyMs;
    /** Requests answered with a verdict, over requests attempted. */
    double okShare = 0;
    double peakRssMb = 0;
};

/** Print the end-to-end block and add its metrics to `out`. */
void addEndToEnd(Outcome &out, const EndToEnd &e);

/**
 * Per-layer metrics of a traced run, by name.  addLayers() emits
 * every per-layer metric the benchmark defines, in a fixed order;
 * a metric of a layer that is not on the workload's path is 0.
 */
using LayerValues = std::map<std::string, double>;
void addLayers(Outcome &out, const LayerValues &values);

/** Workload entry points (one file each). */
Outcome runScale(const Options &opts);
Outcome runDiyMine(const Options &opts);
Outcome runServeMixed(const Options &opts);

} // namespace perfbench

#endif // LKMM_PERFBENCH_HARNESS_HH

/**
 * @file
 * serve-mixed: traffic against an lkmm-serve daemon started with its
 * defaults (isolated worker processes, default engine) and a fresh
 * verdict-cache journal, over min(nproc, 4) connections from this
 * one process.  The mix:
 *
 *  - repeats of a hot set of diy tests: cache hits, answered on the
 *    daemon's connection thread after parse + fingerprint (reads);
 *  - novel diy tests: misses, which pay admission, worker dispatch
 *    and a cache journal insert (writes).
 *
 * The end-to-end metrics come from a closed loop of rounds: one
 * client sends a round of 1000 hits, waits for every verdict, then
 * sends 140 misses over all connections and waits again before the
 * next round.  Single requests take ~0.1 ms, so their own latency is
 * set by scheduler wake-ups, which vary too much from run to run on
 * a shared machine to compare two versions; a round sums enough work
 * to be steady.  The mix is set by cost, not by a traffic model: on
 * one CPU a hit takes ~0.03 ms and a miss ~0.23 ms, so the misses
 * take about half of a round (each run prints the measured share).
 * A regression of twice the bound on either path then moves round
 * latency by the bound.  The closed loop runs the client threads,
 * the daemon and its workers on one CPU: spread over four, the eight
 * threads passing requests back and forth settle either in pairs on
 * one CPU or across CPUs, a 3x throughput difference that flips from
 * run to run and has nothing to do with the code.
 *
 * Every miss must be a test the daemon has not seen.  Generating and
 * checking ~60k distinct tests would take longer than the run, so
 * the misses are a pool of distinct diy tests sent under fresh
 * names: the cache keys on the printed program, name included, so
 * each is a miss with the same parse, dispatch, engine run and
 * insert as a new test, and its verdict is its pool test's.
 *
 * The traced run adds the open loop the per-request numbers come
 * from: seeded Poisson arrivals at hit rates of 800, 1600 and
 * 2400/s plus 20 novel misses/s, and each committed scale test once
 * as a heavy cold miss, every request timed from when it was due.
 *
 * Every "ok" verdict must equal an in-process runTest reference
 * computed before timing.
 */

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "base/json.hh"
#include "exec/engine_config.hh"
#include "harness.hh"
#include "litmus/parser.hh"
#include "lkmm/runner.hh"
#include "model/registry.hh"
#include "serve/protocol.hh"

namespace perfbench
{

namespace
{

namespace json = lkmm::json;

/** A round of the closed loop: hits, then novel misses. */
constexpr std::size_t kRoundHits = 1000;
constexpr std::size_t kRoundMisses = 140;
/** Distinct diy tests the closed loop's misses are renamed from. */
const std::map<std::size_t, std::size_t> kMissPoolShape = {{2, 1800},
                                                           {3, 200}};
/**
 * The daemon's peak RSS is read after this many rounds: its cache
 * grows with every miss, so a peak taken at the end of the run would
 * grow with throughput.
 */
constexpr std::size_t kRssRounds = 200;
/**
 * The hot set: this many tests of each thread count, the 9:1 shape
 * of the misses and of diy-mine.  Its size hardly matters to a hit,
 * which is a hash lookup after parse and fingerprint.
 */
const std::map<std::size_t, std::size_t> kHotShape = {{2, 27}, {3, 3}};

/** Open-loop hit rates, one equal-length step each (1/s). */
const double kHitRates[] = {800, 1600, 2400};
/** Open-loop novel misses per second, on every step. */
constexpr double kMissRate = 20;
/** A step meets the limit when its tail latency is within this. */
constexpr double kLatencyLimitMs = 100;

/** Daemon restarts (cache reopens) timed per set-up. */
constexpr int kRestarts = 31;

enum class Kind
{
    Hot,
    Novel,
    Scale,
};

struct Input
{
    std::string source;
    Kind kind = Kind::Hot;
    std::string verdict;
    double refMs = 0;
    double parseUs = 0;
};

struct Request
{
    /** Seconds after the start of the open loop (0 in a round). */
    double dueS = 0;
    std::size_t input = 0;
    int step = 0;
};

/** What one request saw. */
struct Sample
{
    double latencyMs = 0;
    double lateMs = 0;
    bool ok = false;
    bool cached = false;
    std::int64_t dueNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t doneNs = 0;
};

/** An lkmm-serve child process: started, pinged, stopped. */
class Daemon
{
  public:
    Daemon(std::string bin, std::string dir)
        : bin_(std::move(bin)), socket_(dir + "/serve.sock"),
          cache_(dir + "/cache.jsonl")
    {}

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

    /** Start and wait until a ping is answered; returns ms. */
    double
    start()
    {
        const std::int64_t t0 = nowNs();
        pid_ = ::fork();
        if (pid_ < 0)
            throw BenchFailure("fork failed");
        if (pid_ == 0) {
            ::dup2(2, 1); // keep the daemon off the result stream
            ::execl(bin_.c_str(), bin_.c_str(), "--socket",
                    socket_.c_str(), "--cache", cache_.c_str(),
                    "--quiet", static_cast<char *>(nullptr));
            std::perror("exec lkmm-serve");
            ::_exit(127);
        }
        while (true) {
            try {
                lkmm::serve::Client c =
                    lkmm::serve::Client::connect(socket_);
                c.setTimeout(std::chrono::milliseconds(5000));
                json::Object ping;
                ping["op"] = "ping";
                if (c.request(json::Value(std::move(ping)))
                        .getString("status") == "ok")
                    break;
            } catch (const std::exception &) {
            }
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                throw BenchFailure("lkmm-serve exited during start-up");
            }
            if (nowNs() - t0 > 30'000'000'000LL)
                throw BenchFailure("lkmm-serve not ready after 30 s");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return (nowNs() - t0) / 1e6;
    }

    /** The daemon's {"op":"stats"} object. */
    json::Value
    stats() const
    {
        lkmm::serve::Client c = lkmm::serve::Client::connect(socket_);
        json::Object req;
        req["op"] = "stats";
        json::Value r = c.request(json::Value(std::move(req)));
        const json::Value *s = r.get("stats");
        return s ? *s : json::Value();
    }

    /** The daemon's peak resident set so far (VmHWM), in MiB. */
    double
    peakRssMb() const
    {
        const std::string status =
            readFile("/proc/" + std::to_string(pid_) + "/status");
        const std::size_t at = status.find("VmHWM:");
        if (at == std::string::npos)
            throw BenchFailure("no VmHWM for lkmm-serve");
        return std::stod(status.substr(at + 6)) / 1024.0;
    }

    /** SIGTERM (drain, flush the journal) and reap. */
    void
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw BenchFailure("lkmm-serve did not shut down cleanly");
    }

  private:
    std::string bin_, socket_, cache_;
    pid_t pid_ = -1;
};

/** `source` with `suffix` appended to the test name on its first line. */
std::string
withNameSuffix(const std::string &source, const std::string &suffix)
{
    const std::size_t eol = source.find('\n');
    if (source.rfind("C ", 0) != 0 || eol == std::string::npos)
        throw BenchFailure("serve-mixed: no test name in:\n" + source);
    std::string out = source;
    out.insert(eol, suffix);
    return out;
}

json::Value
verifyRequest(const std::string &source)
{
    json::Object req;
    req["op"] = "verify";
    req["litmus"] = source;
    return json::Value(std::move(req));
}

/** Check one response against the reference; true when ok. */
bool
checkResponse(const json::Value &r, const Input &in, bool &cached)
{
    if (r.getString("status") != "ok")
        return false;
    const json::Value *result = r.get("result");
    const std::string verdict = result ? result->getString("verdict") : "";
    if (verdict == "Unknown")
        return false;
    if (verdict != in.verdict) {
        throw BenchFailure("serve-mixed: daemon answered " + verdict +
                           ", in-process runTest says " + in.verdict +
                           " for:\n" + in.source);
    }
    cached = r.getBool("cached", false);
    return true;
}

/**
 * One connection per thread to a daemon.  run() hands the threads a
 * request list; each thread takes the next request, waits for its
 * due time when the list is a schedule, sends it and waits for the
 * reply.
 */
class ClientPool
{
  public:
    ClientPool(const std::string &socket, int n,
               const std::vector<Input> &inputs)
        : inputs_(inputs), sync_(n + 1)
    {
        for (const Input &in : inputs)
            payloads_.push_back(verifyRequest(in.source));
        for (int i = 0; i < n; ++i) {
            conns_.push_back(lkmm::serve::Client::connect(socket));
            conns_.back().setTimeout(std::chrono::milliseconds(60000));
        }
        for (int i = 0; i < n; ++i)
            threads_.emplace_back([this, i] { loop(conns_[i]); });
    }

    ~ClientPool()
    {
        stop_ = true;
        sync_.arrive_and_wait();
        for (std::thread &t : threads_)
            t.join();
    }

    ClientPool(const ClientPool &) = delete;
    ClientPool &operator=(const ClientPool &) = delete;

    /**
     * Send every request and wait for every reply.  With `timed`
     * each goes out no earlier than its due time after now; with a
     * tracer each request leaves spans.  Request i sends
     * (*payloads)[i] when given, else its input's source.
     */
    void
    run(const std::vector<Request> &reqs, bool timed,
        std::vector<Sample> &out, Tracer *tracer = nullptr,
        const std::vector<json::Value> *payloads = nullptr)
    {
        reqs_ = &reqs;
        sent_ = payloads;
        out_ = &out;
        out.assign(reqs.size(), Sample{});
        timed_ = timed;
        tracer_ = tracer;
        next_ = 0;
        base_ = nowNs() + (timed ? 20'000'000 : 0); // threads settle
        sync_.arrive_and_wait();
        sync_.arrive_and_wait();
        if (!error_.empty())
            throw BenchFailure("serve-mixed: " + error_);
    }

  private:
    void
    loop(lkmm::serve::Client &conn)
    {
        // Wake at each due time, not up to the default 50 us slack
        // after it: the wake-up delay is charged to the request.
        ::prctl(PR_SET_TIMERSLACK, 1UL);
        while (true) {
            sync_.arrive_and_wait();
            if (stop_)
                return;
            try {
                for (std::size_t i = next_++; i < reqs_->size();
                     i = next_++)
                    send(conn, i);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errorMu_);
                error_ = e.what();
                next_ = reqs_->size();
            }
            sync_.arrive_and_wait();
        }
    }

    void
    send(lkmm::serve::Client &conn, std::size_t i)
    {
        const Request &req = (*reqs_)[i];
        Sample &s = (*out_)[i];
        s.dueNs = base_ + static_cast<std::int64_t>(req.dueS * 1e9);
        if (timed_) {
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(s.dueNs)));
        }
        s.sendNs = nowNs();
        if (!timed_)
            s.dueNs = s.sendNs;
        const json::Value r =
            conn.request(sent_ ? (*sent_)[i] : payloads_[req.input]);
        s.doneNs = nowNs();
        s.latencyMs = (s.doneNs - s.dueNs) / 1e6;
        s.lateMs = (s.sendNs - s.dueNs) / 1e6;
        s.ok = checkResponse(r, inputs_[req.input], s.cached);
        if (tracer_) {
            const int span = tracer_->add(
                s.cached ? "serve.hit" : "serve.miss", s.dueNs, s.doneNs,
                -1, i + 1,
                std::string("\"ok\":") + (s.ok ? "true" : "false"));
            tracer_->add("client.wait", s.dueNs, s.sendNs, span, i + 1);
            tracer_->add("serve.roundtrip", s.sendNs, s.doneNs, span,
                         i + 1);
        }
    }

    const std::vector<Input> &inputs_;
    std::vector<json::Value> payloads_;
    std::vector<lkmm::serve::Client> conns_;
    std::vector<std::thread> threads_;
    std::barrier<> sync_;
    const std::vector<Request> *reqs_ = nullptr;
    const std::vector<json::Value> *sent_ = nullptr;
    std::vector<Sample> *out_ = nullptr;
    bool timed_ = false;
    Tracer *tracer_ = nullptr;
    std::int64_t base_ = 0;
    std::atomic<std::size_t> next_{0};
    bool stop_ = false;
    std::mutex errorMu_;
    std::string error_;
};

/**
 * Start a daemon on a fresh cache, warm the hot set into it, then
 * time restarts that reopen (replay) the cache journal.  Returns
 * the start-up times in ms, the fresh start first.
 */
std::vector<double>
setUp(Daemon &daemon, const std::vector<Input> &inputs,
      const std::vector<std::size_t> &hot)
{
    std::vector<double> starts{daemon.start()};
    {
        lkmm::serve::Client c = lkmm::serve::Client::connect(daemon.socket());
        for (std::size_t i : hot) {
            bool cached = false;
            if (!checkResponse(c.request(verifyRequest(inputs[i].source)),
                               inputs[i], cached))
                throw BenchFailure("serve-mixed: warm-up request failed");
        }
    }
    for (int k = 0; k < kRestarts; ++k) {
        daemon.stop();
        starts.push_back(daemon.start());
    }
    return starts;
}

/** The seeded open-loop arrival schedule over `seconds`. */
std::vector<Request>
makeSchedule(lkmm::Rng &rng, double seconds,
             const std::vector<std::size_t> &hot,
             const std::vector<std::size_t> &novel,
             const std::vector<std::size_t> &scale)
{
    const auto uniform = [&] {
        return (static_cast<double>(rng.next() >> 11) + 0.5) /
               9007199254740992.0;
    };
    std::vector<Request> reqs;
    const int steps = static_cast<int>(std::size(kHitRates));
    const double stepS = seconds / steps;
    std::size_t nextNovel = 0;
    for (int s = 0; s < steps; ++s) {
        for (double t = s * stepS - std::log(uniform()) / kHitRates[s];
             t < (s + 1) * stepS;
             t -= std::log(uniform()) / kHitRates[s])
            reqs.push_back({t, hot[rng.below(hot.size())], s});
        for (double t = s * stepS - std::log(uniform()) / kMissRate;
             t < (s + 1) * stepS && nextNovel < novel.size();
             t -= std::log(uniform()) / kMissRate)
            reqs.push_back({t, novel[nextNovel++], s});
    }
    // Each scale test once, spread evenly over the run.
    for (std::size_t k = 0; k < scale.size(); ++k) {
        const double t = (k + uniform()) * seconds / scale.size();
        reqs.push_back({t, scale[k],
                        std::min(steps - 1, static_cast<int>(t / stepS))});
    }
    std::sort(reqs.begin(), reqs.end(),
              [](const Request &a, const Request &b) {
                  return a.dueS < b.dueS;
              });
    return reqs;
}

/** Per-step tails and the highest step rate that met the limit. */
double
ladderMaxRate(const std::vector<Sample> &samples,
              const std::vector<Request> &schedule, double seconds)
{
    const int steps = static_cast<int>(std::size(kHitRates));
    double best = 0;
    for (int s = 0; s < steps; ++s) {
        std::vector<double> lat, late;
        double lastLate = 0;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            if (schedule[i].step != s)
                continue;
            // A failed request misses every limit.
            lat.push_back(samples[i].ok ? samples[i].latencyMs : INFINITY);
            late.push_back(samples[i].lateMs);
            lastLate = samples[i].lateMs;
        }
        const Dist d = summarize(lat);
        const double offered = lat.size() / (seconds / steps);
        const bool meets =
            d.tail <= kLatencyLimitMs && lastLate <= kLatencyLimitMs;
        std::printf("  step %d: offered %.0f/s, %s, sent late by %s, last "
                    "request %.2f ms late: %s\n",
                    s, offered, describe(d, "ms").c_str(),
                    describe(summarize(late), "ms").c_str(), lastLate,
                    meets ? "meets limit" : "MISSES limit");
        if (meets)
            best = std::max(best, offered);
    }
    return best;
}

/**
 * Pins the calling thread, and every thread and process it starts
 * while pinned, to the first CPU it may run on; restores the
 * previous mask when destroyed.
 */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        CPU_ZERO(&old_);
        if (::sched_getaffinity(0, sizeof(old_), &old_) != 0)
            throw BenchFailure("sched_getaffinity failed");
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &old_)) {
                CPU_SET(cpu, &one);
                break;
            }
        }
        if (::sched_setaffinity(0, sizeof(one), &one) != 0)
            throw BenchFailure("sched_setaffinity failed");
    }

    ~PinToOneCpu() { ::sched_setaffinity(0, sizeof(old_), &old_); }

    PinToOneCpu(const PinToOneCpu &) = delete;
    PinToOneCpu &operator=(const PinToOneCpu &) = delete;

  private:
    cpu_set_t old_;
};

double
statCount(const json::Value *stats, const char *key)
{
    return stats ? static_cast<double>(stats->getInt(key, 0)) : 0.0;
}

} // namespace

Outcome
runServeMixed(const Options &opts)
{
    if (opts.serveBin.empty())
        throw BenchFailure("serve-mixed needs --serve-bin");
    const double roundSeconds = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    const double ladderSeconds = opts.seconds / 2.0;

    // Inputs: the hot set, novel diy tests for the rounds (and, in a
    // traced run, a disjoint pool for the open loop), the committed
    // scale tests.  One in ten novel tests has three threads.
    lkmm::Rng rng(opts.seed);
    std::set<std::string> seen;
    std::vector<Input> inputs;
    std::vector<std::size_t> hot, missPool, ladderNovel, scale;
    const auto addInputs = [&](const std::vector<std::string> &sources,
                               Kind kind, std::vector<std::size_t> &ids) {
        for (const std::string &s : sources) {
            ids.push_back(inputs.size());
            inputs.push_back({s, kind, "", 0, 0});
        }
    };
    const auto novelShape = [](double n) {
        const auto count = static_cast<std::size_t>(std::ceil(n)) + 20;
        return std::map<std::size_t, std::size_t>{
            {2, count - count / 10}, {3, count / 10}};
    };
    addInputs(generateDiy(rng, kHotShape, seen), Kind::Hot, hot);
    addInputs(generateDiy(rng, kMissPoolShape, seen), Kind::Novel,
              missPool);
    std::vector<Request> schedule;
    if (opts.trace) {
        addInputs(generateDiy(rng, novelShape(kMissRate * ladderSeconds),
                              seen),
                  Kind::Novel, ladderNovel);
        std::vector<std::string> paths;
        for (const auto &e :
             std::filesystem::directory_iterator("tests/litmus/scale")) {
            if (e.path().extension() == ".litmus")
                paths.push_back(e.path().string());
        }
        std::sort(paths.begin(), paths.end());
        std::vector<std::string> sources;
        for (const std::string &p : paths)
            sources.push_back(readFile(p));
        addInputs(sources, Kind::Scale, scale);
        schedule =
            makeSchedule(rng, ladderSeconds, hot, ladderNovel, scale);
    }
    {
        std::vector<std::string> sources;
        for (const Input &in : inputs)
            sources.push_back(in.source);
        printInputs("distinct inputs", sources);
        std::printf("inputs: %zu hot, %zu novel for rounds, %zu novel and "
                    "%zu scale for the open loop\n",
                    hot.size(), missPool.size(), ladderNovel.size(),
                    scale.size());
    }

    // The in-process reference, outside every timed region.  Its
    // model checks are timed for the exec/model split of the
    // open-loop misses.
    CheckTally tally;
    const TimedModel model(lkmm::ModelRegistry::instance().make("lkmm"),
                           tally);
    const lkmm::EngineConfig engine;
    std::vector<bool> openLoopMiss(inputs.size());
    for (const Request &r : schedule)
        openLoopMiss[r.input] = inputs[r.input].kind != Kind::Hot;
    double missRunNs = 0, missCheckNs = 0, missChecks = 0, missAllowed = 0;
    std::size_t missInputs = 0;
    lkmm::Enumerator::Stats missStats;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Input &in = inputs[i];
        const std::uint64_t ns0 = tally.ns, calls0 = tally.calls,
                            allowed0 = tally.allowed;
        const std::int64_t t0 = nowNs();
        const lkmm::Program prog = lkmm::parseLitmus(in.source);
        const std::int64_t t1 = nowNs();
        const lkmm::RunResult r =
            lkmm::runTest(prog, model, engine.budget, engine.enumerate);
        const std::int64_t t2 = nowNs();
        in.verdict = lkmm::verdictName(r.verdict);
        in.refMs = (t2 - t0) / 1e6;
        in.parseUs = (t1 - t0) / 1e3;
        if (openLoopMiss[i]) {
            ++missInputs;
            missRunNs += t2 - t1;
            missCheckNs += tally.ns - ns0;
            missChecks += tally.calls - calls0;
            missAllowed += tally.allowed - allowed0;
            statsAdd(missStats, r.stats);
        }
    }

    // Rounds: seeded hot-set hits, then seeded pool tests under
    // names not sent before, so every round has the same shape.
    std::size_t renamed = 0;
    const auto makeHits = [&] {
        std::vector<Request> hits;
        for (std::size_t k = 0; k < kRoundHits; ++k)
            hits.push_back({0, hot[rng.below(hot.size())], 0});
        return hits;
    };
    const auto makeMisses = [&](std::vector<json::Value> &payloads) {
        std::vector<Request> misses;
        payloads.clear();
        for (std::size_t k = 0; k < kRoundMisses; ++k) {
            const std::size_t id = missPool[rng.below(missPool.size())];
            misses.push_back({0, id, 0});
            const std::string name = "+n" + std::to_string(++renamed);
            payloads.push_back(
                verifyRequest(withNameSuffix(inputs[id].source, name)));
        }
        return misses;
    };

    const std::string dir = opts.workDir + "/serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Outcome out;
    const auto account = [&](const std::vector<Sample> &samples,
                             std::optional<bool> cached = std::nullopt) {
        for (const Sample &s : samples) {
            ++out.attempted;
            out.failed += !s.ok;
            // A round's hits must come from the cache and its misses
            // must not, or the round is not the mix it claims.
            if (s.ok && cached && s.cached != *cached)
                throw BenchFailure(*cached
                                       ? "serve-mixed: a hot-set hit missed"
                                       : "serve-mixed: a renamed pool test "
                                         "was answered from the cache");
        }
    };

    // A traced run starts with the open loop, against its own daemon
    // on every CPU, so the scale tests arrive as cold misses.
    Tracer tracer;
    std::vector<Sample> samples;
    json::Value stats;
    if (opts.trace) {
        Daemon ladderDaemon(opts.serveBin, dir);
        setUp(ladderDaemon, inputs, hot);
        {
            ClientPool pool(ladderDaemon.socket(), opts.parallelism, inputs);
            pool.run(schedule, true, samples, &tracer);
        }
        account(samples);
        stats = ladderDaemon.stats();
        ladderDaemon.stop();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    // The closed loop, on one CPU.  A traced run alternates untraced
    // and traced rounds, for trace.overhead_share.
    const PinToOneCpu pin;
    Daemon daemon(opts.serveBin, dir);
    const std::vector<double> starts = setUp(daemon, inputs, hot);
    std::vector<double> roundMs, tracedRoundMs, missShare, hitPhaseMs,
        missPhaseMs;
    double peakRss = 0;
    {
        ClientPool pool(daemon.socket(), opts.parallelism, inputs);
        std::vector<Sample> roundSamples;
        std::vector<json::Value> missPayloads;
        const Clock::time_point start = Clock::now();
        bool traceThis = false;
        do {
            const std::vector<Request> hits = makeHits();
            const std::vector<Request> misses = makeMisses(missPayloads);
            Tracer *t = traceThis ? &tracer : nullptr;
            const std::int64_t t0 = nowNs();
            pool.run(hits, false, roundSamples, t);
            const std::int64_t t1 = nowNs();
            account(roundSamples, true);
            pool.run(misses, false, roundSamples, t, &missPayloads);
            const std::int64_t t2 = nowNs();
            account(roundSamples, false);
            (traceThis ? tracedRoundMs : roundMs).push_back((t2 - t0) / 1e6);
            if (!traceThis) {
                missShare.push_back(static_cast<double>(t2 - t1) /
                                    static_cast<double>(t2 - t0));
                hitPhaseMs.push_back((t1 - t0) / 1e6);
                missPhaseMs.push_back((t2 - t1) / 1e6);
            }
            if (roundMs.size() + tracedRoundMs.size() == kRssRounds)
                peakRss = daemon.peakRssMb();
            traceThis = opts.trace && !traceThis;
        } while (secondsSince(start) < roundSeconds);
    }
    if (peakRss == 0)
        peakRss = daemon.peakRssMb();
    std::printf("closed loop: misses took %.1f%% of a round (median); "
                "hit phase %s; miss phase %s\n",
                100 * median(missShare),
                describe(summarize(hitPhaseMs), "ms").c_str(),
                describe(summarize(missPhaseMs), "ms").c_str());
    double untracedS = 0, tracedS = 0;
    for (double ms : roundMs)
        untracedS += ms / 1e3;
    for (double ms : tracedRoundMs)
        tracedS += ms / 1e3;

    if (!opts.trace) {
        daemon.stop();
        std::printf("rounds %zu of %zu requests over %.2f s; daemon peak "
                    "rss after %zu rounds %.1f MiB\n",
                    roundMs.size(), kRoundHits + kRoundMisses, untracedS,
                    std::min(kRssRounds, roundMs.size()), peakRss);
        EndToEnd e;
        e.setupS = median(std::vector<double>(starts.begin() + 1,
                                              starts.end())) /
                   1e3;
        e.testsPerS = static_cast<double>(out.attempted - out.failed) /
                      untracedS;
        e.latencyMs = summarize(roundMs);
        e.okShare = 1.0 - static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
        e.peakRssMb = peakRss;
        addEndToEnd(out, e);
        return out;
    }

    daemon.stop();
    std::printf("open loop:\n");
    const double ladderRate = ladderMaxRate(samples, schedule, ladderSeconds);

    std::vector<double> hitLat, missLat, overhead, late;
    double hitNs = 0, parseUs = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Sample &s = samples[i];
        const Input &in = inputs[schedule[i].input];
        parseUs += in.parseUs;
        late.push_back(s.lateMs);
        if (!s.ok)
            continue;
        if (s.cached) {
            hitLat.push_back(s.latencyMs);
            hitNs += s.doneNs - s.sendNs;
        } else {
            missLat.push_back(s.latencyMs);
            overhead.push_back(s.latencyMs - in.refMs);
        }
    }
    const Dist hitD = summarize(hitLat), missD = summarize(missLat);
    std::printf("hits %s\nmisses %s\nopen-loop max rate %.1f/s\n",
                describe(hitD, "ms").c_str(), describe(missD, "ms").c_str(),
                ladderRate);

    LayerTable table;
    table.add("litmus", parseUs * 1e3, schedule.size());
    table.add("serve", hitNs, hitLat.size());
    table.add("exec", missRunNs - missCheckNs, missInputs);
    table.add("model", missCheckNs, static_cast<std::uint64_t>(missChecks));
    table.print("per-layer self time, open loop (hits as served; misses "
                "from the in-process reference; parse replayed):");

    const json::Value *cache = stats.get("cache");
    LayerValues v;
    v["litmus.parse_calls"] = static_cast<double>(schedule.size());
    v["litmus.parse_us"] = parseUs / schedule.size();
    v["model.check_calls"] = missChecks;
    v["model.check_ms"] = missCheckNs / 1e6;
    v["model.check_ns_per_call"] =
        missChecks > 0 ? missCheckNs / missChecks : 0;
    v["model.allowed_ratio"] = missChecks > 0 ? missAllowed / missChecks : 0;
    v["exec.self_ms"] = (missRunNs - missCheckNs) / 1e6;
    v["exec.path_combos"] = missStats.pathCombos;
    v["exec.rf_space"] = missStats.rfSpace;
    v["exec.rf_assignments"] = missStats.rfAssignments;
    v["exec.rf_pruned"] = missStats.rfPruned;
    v["exec.rf_consistent"] = missStats.rfConsistent;
    v["exec.rf_sat_rejects"] = missStats.rfSatRejects;
    v["exec.co_fallbacks"] = missStats.coFallbacks;
    v["exec.candidates"] = missStats.candidates;
    v["exec.rf_yield"] =
        missStats.rfSpace ? static_cast<double>(missStats.rfConsistent) /
                                static_cast<double>(missStats.rfSpace)
                          : 0;
    v["lkmm.run_test_ms"] = missRunNs / 1e6 / missInputs;
    v["serve.start_ms"] = median(starts);
    v["serve.hit_p50_ms"] = hitD.p50;
    v["serve.hit_tail_ms"] = hitD.tail;
    v["serve.miss_p50_ms"] = missD.p50;
    v["serve.miss_tail_ms"] = missD.tail;
    v["serve.miss_overhead_ms"] = median(overhead);
    v["serve.hit_ratio"] =
        static_cast<double>(hitLat.size()) / schedule.size();
    v["serve.round_miss_share"] = median(missShare);
    v["serve.cache_insertions"] = statCount(cache, "insertions");
    v["serve.cache_journal_bytes"] = statCount(cache, "journal_bytes");
    v["serve.cache_compactions"] = statCount(cache, "compactions");
    v["serve.shed_queue_full"] = statCount(&stats, "shed_queue_full");
    v["serve.shed_deadline"] = statCount(&stats, "shed_deadline");
    v["serve.worker_crashes"] = statCount(&stats, "worker_crashes");
    v["serve.worker_timeouts"] = statCount(&stats, "worker_timeouts");
    v["serve.errors"] = statCount(&stats, "errors");
    v["serve.generator_late_ms"] = summarize(late).tail;
    v["serve.open_loop_max_rate_rps"] = ladderRate;
    v["trace.overhead_share"] =
        (tracedS / tracedRoundMs.size()) / (untracedS / roundMs.size()) -
        1.0;
    addLayers(out, v);
    tracer.writeChrome(opts.workDir + "/trace-serve-mixed.json");
    return out;
}

} // namespace perfbench

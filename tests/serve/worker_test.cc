/**
 * @file
 * Crash-only serving tests (serve/worker + serve/server worker tier):
 * a worker segv/hang mid-request costs exactly one sound
 * Unknown{worker-crash|worker-timeout} response while concurrent
 * clients get byte-identical answers; a repeat-offender fingerprint
 * is quarantined and refused fast with its recorded reason; kill -9
 * of the daemon mid-load loses nothing the journal already holds;
 * and a permanently-crashing input cannot turn the supervisor into a
 * fork bomb (respawn rate is capped by exponential backoff).
 *
 * The crash hooks are the legacy fault-injection points
 * (Point::CrashSegv/Hang) with the context filter pinned to the
 * poison test's name: armed state is inherited over fork, so every
 * worker — initial or respawned — crashes on exactly the poisoned
 * request and nothing else.  Arming therefore happens BEFORE the
 * Server is constructed (the initial workers fork in its ctor).
 *
 * Respawning forks from an already-threaded daemon, which TSan
 * forbids (fork-from-multithreaded deadlocks under its runtime), so
 * every test that provokes a respawn is compiled out under TSan; the
 * default worker tier itself stays TSan-covered via the existing
 * server suite, whose initial forks are single-threaded.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/faultinject.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"

#if defined(__SANITIZE_THREAD__)
#define LKMM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LKMM_TSAN 1
#endif
#endif

namespace lkmm::serve
{
namespace
{

const char *kMp = "C MP\n\n{ x=0; y=0; }\n\n"
                  "P0(int *x, int *y) {\n"
                  "  WRITE_ONCE(*x, 1);\n"
                  "  WRITE_ONCE(*y, 1);\n}\n\n"
                  "P1(int *x, int *y) {\n"
                  "  int r0 = READ_ONCE(*y);\n"
                  "  int r1 = READ_ONCE(*x);\n}\n\n"
                  "exists (1:r0=1 /\\ 1:r1=0)\n";

const char *kSb = "C SB\n\n{ x=0; y=0; }\n\n"
                  "P0(int *x, int *y) {\n"
                  "  WRITE_ONCE(*x, 1);\n"
                  "  int r0 = READ_ONCE(*y);\n}\n\n"
                  "P1(int *x, int *y) {\n"
                  "  WRITE_ONCE(*y, 1);\n"
                  "  int r1 = READ_ONCE(*x);\n}\n\n"
                  "exists (0:r0=0 /\\ 1:r1=0)\n";

/** Identical body to MP, but named so the crash filter can target
 *  exactly this request and no other. */
const char *kPoison = "C POISON\n\n{ x=0; y=0; }\n\n"
                      "P0(int *x, int *y) {\n"
                      "  WRITE_ONCE(*x, 1);\n"
                      "  WRITE_ONCE(*y, 1);\n}\n\n"
                      "P1(int *x, int *y) {\n"
                      "  int r0 = READ_ONCE(*y);\n"
                      "  int r1 = READ_ONCE(*x);\n}\n\n"
                      "exists (1:r0=1 /\\ 1:r1=0)\n";

std::string
socketPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "worker_test_" + name + ".sock";
    std::remove(path.c_str());
    return path;
}

std::string
cachePath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "worker_test_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

json::Object
verifyRequest(const std::string &source, bool nocache = false)
{
    json::Object req;
    req["op"] = "verify";
    req["litmus"] = source;
    if (nocache)
        req["nocache"] = true;
    return req;
}

json::Value
request(const std::string &socket, const json::Value &req)
{
    Client client = Client::connect(socket);
    client.setTimeout(std::chrono::milliseconds(60000));
    return client.request(req);
}

/** RAII reset so a crash-armed test can't poison its successors. */
struct FaultGuard
{
    FaultGuard() { faultinject::reset(); }
    ~FaultGuard() { faultinject::reset(); }
};

/** Every pid must be gone (ESRCH) — the no-orphan invariant. */
void
expectAllDead(const std::vector<pid_t> &pids)
{
    for (const pid_t pid : pids) {
        if (pid <= 0)
            continue;
        const int rc = ::kill(pid, 0);
        EXPECT_TRUE(rc != 0 && errno == ESRCH)
            << "worker " << pid << " outlived the pool";
    }
}

#ifndef LKMM_TSAN

TEST(WorkerIsolation, SegvMidRequestIsolatedToOneClient)
{
    FaultGuard guard;
    faultinject::setFilter("POISON");
    faultinject::arm(faultinject::Point::CrashSegv);

    ServeOptions opts;
    opts.socketPath = socketPath("segv");
    opts.workers = 2;
    Server server(opts);
    server.start();

    // Undisturbed reference bytes, computed by the same (armed but
    // filtered) workers: the filter proves only POISON crashes.
    const json::Value mpRef =
        request(opts.socketPath, verifyRequest(kMp, true));
    ASSERT_EQ(mpRef.getString("status"), "ok") << mpRef.serialize();
    const json::Value sbRef =
        request(opts.socketPath, verifyRequest(kSb, true));
    ASSERT_EQ(sbRef.getString("status"), "ok") << sbRef.serialize();
    const std::string mpBytes = mpRef.get("result")->serialize();
    const std::string sbBytes = sbRef.get("result")->serialize();

    // The poisoned request races healthy traffic from other clients.
    json::Value poisoned;
    std::thread victim([&] {
        poisoned =
            request(opts.socketPath, verifyRequest(kPoison, true));
    });
    std::vector<std::string> concurrent(4);
    std::vector<std::thread> others;
    for (std::size_t i = 0; i < concurrent.size(); ++i) {
        others.emplace_back([&, i] {
            const json::Value resp = request(
                opts.socketPath,
                verifyRequest(i % 2 == 0 ? kMp : kSb, true));
            concurrent[i] = resp.getString("status") == "ok"
                                ? resp.get("result")->serialize()
                                : resp.serialize();
        });
    }
    victim.join();
    for (std::thread &t : others)
        t.join();

    // Exactly one client pays, with a sound Unknown that names the
    // worker death; nobody's connection dropped.
    EXPECT_EQ(poisoned.getString("status"), "crash")
        << poisoned.serialize();
    EXPECT_EQ(poisoned.getString("reason"), "worker-crash");
    EXPECT_EQ(poisoned.getString("verdict"), "Unknown");
    EXPECT_TRUE(poisoned.getBool("retryable", false));
    EXPECT_FALSE(poisoned.getString("detail").empty());
    for (std::size_t i = 0; i < concurrent.size(); ++i) {
        EXPECT_EQ(concurrent[i], i % 2 == 0 ? mpBytes : sbBytes)
            << "concurrent client " << i
            << " was disturbed by the worker crash";
    }
    EXPECT_EQ(server.stats().workerCrashes, 1u);

    // The pool healed: a fresh request still computes.
    const json::Value after =
        request(opts.socketPath, verifyRequest(kMp, true));
    EXPECT_EQ(after.getString("status"), "ok");
    ASSERT_NE(server.workerPool(), nullptr);
    // The supervisor heals asynchronously (respawn under backoff);
    // give it a bounded moment before asserting the heal count.
    for (int i = 0;
         i < 100 && server.workerPool()->stats().restarts < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(server.workerPool()->stats().restarts, 1u);

    const std::vector<pid_t> pids = server.workerPool()->livePids();
    EXPECT_FALSE(pids.empty());
    server.stop();
    expectAllDead(pids);
}

TEST(WorkerIsolation, HangMidRequestBecomesWorkerTimeout)
{
    FaultGuard guard;
    faultinject::setFilter("POISON");
    faultinject::arm(faultinject::Point::Hang);

    ServeOptions opts;
    opts.socketPath = socketPath("hang");
    opts.workers = 2;
    Server server(opts);
    server.start();

    json::Object poison = verifyRequest(kPoison, true);
    poison["deadline_ms"] = static_cast<std::int64_t>(700);
    const json::Value resp =
        request(opts.socketPath, json::Value(std::move(poison)));
    EXPECT_EQ(resp.getString("status"), "crash") << resp.serialize();
    EXPECT_EQ(resp.getString("reason"), "worker-timeout");
    EXPECT_EQ(resp.getString("verdict"), "Unknown");
    EXPECT_TRUE(resp.getBool("retryable", false));
    EXPECT_EQ(server.stats().workerTimeouts, 1u);

    // The wedged worker was SIGKILLed, not leaked, and the daemon
    // still serves.
    const json::Value after =
        request(opts.socketPath, verifyRequest(kMp, true));
    EXPECT_EQ(after.getString("status"), "ok");
    server.stop();
}

TEST(WorkerQuarantine, RepeatOffenderRefusedFastWithReason)
{
    FaultGuard guard;
    faultinject::setFilter("POISON");
    faultinject::arm(faultinject::Point::CrashSegv);

    ServeOptions opts;
    opts.socketPath = socketPath("quarantine");
    opts.workers = 1;
    opts.quarantineCrashes = 1;
    Server server(opts);
    server.start();

    const json::Value first =
        request(opts.socketPath, verifyRequest(kPoison, true));
    EXPECT_EQ(first.getString("status"), "crash")
        << first.serialize();

    // Same fingerprint again: refused up front, with the recorded
    // signature, retryable=false — and without burning a worker.
    const json::Value second =
        request(opts.socketPath, verifyRequest(kPoison, true));
    EXPECT_EQ(second.getString("status"), "shed")
        << second.serialize();
    EXPECT_EQ(second.getString("reason"), "quarantined");
    EXPECT_EQ(second.getString("verdict"), "Unknown");
    EXPECT_FALSE(second.getBool("retryable", true));
    EXPECT_NE(second.getString("detail").find("worker"),
              std::string::npos)
        << "refusal must carry the recorded failure signature: "
        << second.serialize();
    ASSERT_NE(server.workerPool(), nullptr);
    EXPECT_EQ(server.workerPool()->stats().crashes, 1u)
        << "the quarantined retry must not reach a worker";
    EXPECT_EQ(server.stats().quarantineRefusals, 1u);

    // Other fingerprints are unaffected.
    const json::Value healthy =
        request(opts.socketPath, verifyRequest(kMp, true));
    EXPECT_EQ(healthy.getString("status"), "ok");
    server.stop();
}

TEST(WorkerBackoff, CrashLoopRespawnRateIsCapped)
{
    FaultGuard guard;
    faultinject::setFilter("POISON");
    faultinject::arm(faultinject::Point::CrashSegv);

    ServeOptions opts;
    opts.socketPath = socketPath("backoff");
    opts.workers = 1;
    opts.quarantineCrashes = 0; // isolate the backoff behaviour
    opts.workerRespawn.baseDelay = std::chrono::microseconds(50000);
    opts.workerRespawn.maxDelay = std::chrono::microseconds(2000000);
    opts.workerRespawn.multiplier = 2.0;
    opts.workerRespawn.jitter = 0.0; // deterministic delays
    Server server(opts);
    server.start();

    // Three crashes of the single worker force two respawns-under-
    // backoff before requests 2 and 3 can even be dispatched: 50 ms
    // after the first crash, 100 ms after the second.
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
        const json::Value resp =
            request(opts.socketPath, verifyRequest(kPoison, true));
        EXPECT_EQ(resp.getString("status"), "crash")
            << "crash " << i << ": " << resp.serialize();
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin);

    ASSERT_NE(server.workerPool(), nullptr);
    const WorkerPoolStats stats = server.workerPool()->stats();
    EXPECT_EQ(stats.crashes, 3u);
    EXPECT_GE(stats.restarts, 2u);
    EXPECT_GE(stats.consecutiveCrashes, 3u);
    // The measurable rate cap: the supervisor slept the exponential
    // schedule (50 + 100 ms at least) rather than respawning as fast
    // as the crash loop could drive it.
    EXPECT_GE(stats.backoffTotalUs, 150000u);
    EXPECT_GE(elapsed.count(), 150000)
        << "three crashes completed too fast for capped respawn";

    // One healthy reply resets the crash streak.
    const json::Value healthy =
        request(opts.socketPath, verifyRequest(kMp, true));
    EXPECT_EQ(healthy.getString("status"), "ok");
    EXPECT_EQ(server.workerPool()->stats().consecutiveCrashes, 0u);

    const std::vector<pid_t> pids = server.workerPool()->livePids();
    server.stop();
    expectAllDead(pids);
}

#endif // !LKMM_TSAN

TEST(WorkerRestart, Kill9MidLoadThenRestartServesWarmByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = socketPath("kill9");
    opts.workers = 2;
    opts.cache.path = cachePath("kill9");

    // The daemon lives in a forked child so the test can kill -9 a
    // real process (its workers are grandchildren and must not
    // survive it either).
    const pid_t daemon = ::fork();
    ASSERT_GE(daemon, 0);
    if (daemon == 0) {
        try {
            Server server(opts);
            server.start();
            for (;;)
                ::pause();
        } catch (...) {
            ::_exit(111);
        }
    }

    // Wait for the socket, then populate the cache through the
    // worker tier.
    json::Value mpCold, sbCold;
    for (int attempt = 0;; ++attempt) {
        try {
            mpCold = request(opts.socketPath, verifyRequest(kMp));
            break;
        } catch (const std::exception &) {
            ASSERT_LT(attempt, 100) << "daemon never came up";
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }
    sbCold = request(opts.socketPath, verifyRequest(kSb));
    ASSERT_EQ(mpCold.getString("status"), "ok")
        << mpCold.serialize();
    ASSERT_EQ(sbCold.getString("status"), "ok")
        << sbCold.serialize();

    // kill -9: no drain, no flush — the journal must already hold
    // every verdict whose response was delivered.
    ASSERT_EQ(::kill(daemon, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);

    // A restarted daemon on the same journal serves both verdicts
    // warm and byte-identical.
    Server reborn(opts);
    reborn.start();
    const json::Value mpWarm =
        request(opts.socketPath, verifyRequest(kMp));
    const json::Value sbWarm =
        request(opts.socketPath, verifyRequest(kSb));
    ASSERT_EQ(mpWarm.getString("status"), "ok");
    ASSERT_EQ(sbWarm.getString("status"), "ok");
    EXPECT_TRUE(mpWarm.getBool("cached", false))
        << "journal recovery lost the MP verdict";
    EXPECT_TRUE(sbWarm.getBool("cached", false))
        << "journal recovery lost the SB verdict";
    EXPECT_EQ(mpWarm.get("result")->serialize(),
              mpCold.get("result")->serialize());
    EXPECT_EQ(sbWarm.get("result")->serialize(),
              sbCold.get("result")->serialize());
    reborn.stop();
}

TEST(WorkerHealth, PingReportsWorkerTierState)
{
    ServeOptions opts;
    opts.socketPath = socketPath("health");
    opts.workers = 2;
    Server server(opts);
    server.start();

    request(opts.socketPath, verifyRequest(kMp));

    json::Object pingReq;
    pingReq["op"] = "ping";
    const json::Value pong =
        request(opts.socketPath, json::Value(std::move(pingReq)));
    ASSERT_EQ(pong.getString("status"), "ok");
    EXPECT_EQ(pong.getString("isolation"), "workers");
    const json::Value *workers = pong.get("workers");
    ASSERT_NE(workers, nullptr) << pong.serialize();
    EXPECT_GE(workers->getInt("live"), 1);
    EXPECT_EQ(workers->getInt("crashes"), 0);
    ASSERT_NE(workers->get("per_worker"), nullptr);
    EXPECT_EQ(pong.getInt("quarantine_size"), 0);

    // The in-process tier reports itself honestly too.
    server.stop();
    ServeOptions inproc;
    inproc.socketPath = socketPath("health-inproc");
    inproc.workers = 1;
    inproc.isolation = ServeIsolation::InProcess;
    Server legacy(inproc);
    legacy.start();
    json::Object pingReq2;
    pingReq2["op"] = "ping";
    const json::Value pong2 =
        request(inproc.socketPath, json::Value(std::move(pingReq2)));
    EXPECT_EQ(pong2.getString("isolation"), "inproc");
    EXPECT_EQ(pong2.get("workers"), nullptr);
    legacy.stop();
}

/**
 * Two writes to x seen by two reads: coherence forces most of co
 * and rules out some rf pairs, so the engines deliver different
 * candidate counts for it.
 */
const char *kCoRR = "C CORR\n\n{ x=0; }\n\n"
                    "P0(int *x) {\n"
                    "  WRITE_ONCE(*x, 1);\n"
                    "  WRITE_ONCE(*x, 2);\n}\n\n"
                    "P1(int *x) {\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "exists (1:r0=2 /\\ 1:r1=1)\n";

/** Run one worker frame for kCoRR under lkmm in this process. */
json::Value
runFrame(const char *engine)
{
    json::Object o;
    o["op"] = "run";
    o["name"] = "CORR";
    o["litmus"] = kCoRR;
    o["model"] = "lkmm";
    for (const char *key : {"budget_wall_ns", "budget_candidates",
                            "budget_rf", "budget_eval"})
        o[key] = static_cast<std::int64_t>(0);
    if (engine != nullptr)
        o["engine"] = engine;
    std::map<std::string, std::unique_ptr<Model>> models;
    return json::Value::parse(
        runWorkerFrame(json::Value(std::move(o)).serialize(), models));
}

TEST(WorkerFrame, MissingEngineKeyRunsTheDefaultEngine)
{
    const json::Value absent = runFrame(nullptr);
    ASSERT_TRUE(absent.getBool("ok", false)) << absent.serialize();
    const std::string defaultMode = EngineConfig{}.modeName();
    const json::Value dflt = runFrame(defaultMode.c_str());
    ASSERT_TRUE(dflt.getBool("ok", false)) << dflt.serialize();
    EXPECT_EQ(absent.get("result")->serialize(),
              dflt.get("result")->serialize());

    // The frame really exercises the engine choice: the oracle
    // delivers more raw candidates for the same verdict.
    const json::Value brute = runFrame("brute");
    ASSERT_TRUE(brute.getBool("ok", false)) << brute.serialize();
    EXPECT_EQ(absent.get("result")->getString("verdict"),
              brute.get("result")->getString("verdict"));
    EXPECT_LT(absent.get("result")->getInt("candidates"),
              brute.get("result")->getInt("candidates"));

    // A retired mode name is refused, never silently remapped.
    const json::Value retired = runFrame("incremental");
    EXPECT_FALSE(retired.getBool("ok", true));
    EXPECT_EQ(retired.getString("code"),
              statusCodeName(StatusCode::InvalidArgument));
}

} // namespace
} // namespace lkmm::serve

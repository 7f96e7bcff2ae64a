/**
 * @file
 * End-to-end tests for the lkmm-serve daemon core (serve/server):
 * cold-vs-warm byte identity across every registry model, warm
 * restart from the journal, admission control and deadline sheds
 * (always the sound Unknown, never a wrong verdict), per-client
 * fault isolation, and a multi-client stress run sized for TSan.
 *
 * Everything here talks to a real Server over its unix socket —
 * the in-process equivalent of the CLI smoke test, but with the
 * knobs (workers, maxPending, deadlines, frame caps) pinned to
 * values that make each degradation path deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "model/registry.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

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

/**
 * A deliberately huge candidate space: five writers to x, ten
 * reads of x, so even the rf-first engine runs for many seconds.  Only
 * ever issued with a deadline — its job is to pin a worker for a
 * known minimum time so queue-full and deadline sheds become
 * deterministic, not to finish.
 */
const char *kHuge = "C HUGE\n\n{ x=0; }\n\n"
                    "P0(int *x) {\n"
                    "  WRITE_ONCE(*x, 1);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P1(int *x) {\n"
                    "  WRITE_ONCE(*x, 2);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P2(int *x) {\n"
                    "  WRITE_ONCE(*x, 3);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P3(int *x) {\n"
                    "  WRITE_ONCE(*x, 4);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "P4(int *x) {\n"
                    "  WRITE_ONCE(*x, 5);\n"
                    "  int r0 = READ_ONCE(*x);\n"
                    "  int r1 = READ_ONCE(*x);\n}\n\n"
                    "exists (0:r0=4 /\\ 1:r0=1 /\\ 2:r0=2 /\\ 3:r0=3)\n";

std::string
socketPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "serve_test_" + name + ".sock";
    std::remove(path.c_str());
    return path;
}

std::string
cachePath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "serve_test_" + name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

json::Object
verifyRequest(const std::string &source)
{
    json::Object req;
    req["op"] = "verify";
    req["litmus"] = source;
    return req;
}

json::Value
request(const std::string &socket, const json::Value &req)
{
    Client client = Client::connect(socket);
    client.setTimeout(std::chrono::milliseconds(60000));
    return client.request(req);
}

TEST(Server, ColdThenWarmHitIsByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = socketPath("warm");
    opts.workers = 2;
    Server server(opts);
    server.start();

    const json::Value req = verifyRequest(kMp);
    const json::Value cold = request(opts.socketPath, req);
    ASSERT_EQ(cold.getString("status"), "ok") << cold.serialize();
    EXPECT_FALSE(cold.getBool("cached", true));
    EXPECT_EQ(cold.get("result")->getString("verdict"), "Allow")
        << "MP is allowed without fences";

    const json::Value warm = request(opts.socketPath, req);
    ASSERT_EQ(warm.getString("status"), "ok");
    EXPECT_TRUE(warm.getBool("cached", false));
    EXPECT_EQ(warm.get("result")->serialize(),
              cold.get("result")->serialize());
    EXPECT_EQ(server.stats().cacheHits, 1u);
    server.stop();
}

TEST(Server, EveryRegistryModelCacheHitIsByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = socketPath("models");
    opts.workers = 2;
    opts.cache.path = cachePath("models");
    std::vector<std::string> coldResults;
    {
        Server server(opts);
        server.start();
        for (const ModelInfo &info :
             ModelRegistry::instance().listModels()) {
            json::Object req = verifyRequest(kMp);
            req["model"] = info.name;
            const json::Value cold =
                request(opts.socketPath, json::Value(req));
            ASSERT_EQ(cold.getString("status"), "ok")
                << info.name << ": " << cold.serialize();
            EXPECT_FALSE(cold.getBool("cached", true)) << info.name;
            coldResults.push_back(cold.get("result")->serialize());

            const json::Value warm =
                request(opts.socketPath, json::Value(req));
            EXPECT_TRUE(warm.getBool("cached", false)) << info.name;
            EXPECT_EQ(warm.get("result")->serialize(),
                      coldResults.back())
                << info.name;
        }
        server.stop();
    }

    // A restarted daemon replays the journal: every model's verdict
    // must come back cached and byte-identical to the cold run.
    Server reborn(opts);
    reborn.start();
    EXPECT_EQ(reborn.cacheStats().recoveredEntries,
              coldResults.size());
    std::size_t i = 0;
    for (const ModelInfo &info :
         ModelRegistry::instance().listModels()) {
        json::Object req = verifyRequest(kMp);
        req["model"] = info.name;
        const json::Value warm =
            request(opts.socketPath, json::Value(req));
        ASSERT_EQ(warm.getString("status"), "ok") << info.name;
        EXPECT_TRUE(warm.getBool("cached", false))
            << info.name << " after restart";
        EXPECT_EQ(warm.get("result")->serialize(), coldResults[i++])
            << info.name << " after restart";
    }
    reborn.stop();
}

TEST(Server, QueueFullShedsWithSoundUnknown)
{
    ServeOptions opts;
    opts.socketPath = socketPath("shed");
    opts.workers = 1;
    opts.maxPending = 1;
    Server server(opts);
    server.start();

    // Pin the single worker: the huge test cannot finish inside its
    // 1.5 s deadline, so the worker is busy for that long.
    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["deadline_ms"] = static_cast<std::int64_t>(1500);
    json::Value hugeResp;
    std::thread pinner([&] {
        hugeResp = request(opts.socketPath, json::Value(hugeReq));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // With the only slot taken, the next verification is shed...
    const json::Value shed =
        request(opts.socketPath, verifyRequest(kMp));
    EXPECT_EQ(shed.getString("status"), "shed") << shed.serialize();
    EXPECT_EQ(shed.getString("reason"), "queue-full");
    EXPECT_EQ(shed.getString("verdict"), "Unknown")
        << "shedding must degrade soundly, never guess";
    EXPECT_TRUE(shed.getBool("retryable", false))
        << "a full queue is transient; clients may retry";
    EXPECT_GT(shed.getInt("retry_after_ms"), 0);

    pinner.join();
    // ...and the pinned request itself degraded soundly: truncated
    // by its deadline, verdict Unknown, and (being incomplete) never
    // cached.
    ASSERT_EQ(hugeResp.getString("status"), "ok")
        << hugeResp.serialize();
    EXPECT_EQ(hugeResp.get("result")->getString("verdict"), "Unknown");
    EXPECT_NE(hugeResp.get("result")->getString("completeness"),
              "complete");
    EXPECT_EQ(server.cacheStats().insertions, 0u)
        << "truncated runs must never be cached";
    EXPECT_EQ(server.stats().shedQueueFull, 1u);
    server.stop();
}

TEST(Server, QueuedPastDeadlineShedsWithoutRunning)
{
    ServeOptions opts;
    opts.socketPath = socketPath("deadline");
    opts.workers = 1;
    opts.maxPending = 8;
    Server server(opts);
    server.start();

    json::Object hugeReq = verifyRequest(kHuge);
    hugeReq["deadline_ms"] = static_cast<std::int64_t>(1500);
    json::Value hugeResp;
    std::thread pinner([&] {
        hugeResp = request(opts.socketPath, json::Value(hugeReq));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Admitted, but its 100 ms deadline expires while it waits
    // behind the pinned worker: the job must be dropped unrun.
    json::Object lateReq = verifyRequest(kMp);
    lateReq["deadline_ms"] = static_cast<std::int64_t>(100);
    const json::Value late =
        request(opts.socketPath, json::Value(lateReq));
    pinner.join();

    EXPECT_EQ(late.getString("status"), "shed") << late.serialize();
    EXPECT_EQ(late.getString("reason"), "deadline");
    EXPECT_EQ(late.getString("verdict"), "Unknown");
    EXPECT_TRUE(late.getBool("retryable", false));
    EXPECT_GT(late.getInt("retry_after_ms"), 0);
    EXPECT_EQ(server.stats().shedDeadline, 1u);
    server.stop();
}

TEST(Server, MalformedJsonAndUnknownOpKeepConnectionAlive)
{
    ServeOptions opts;
    opts.socketPath = socketPath("malformed");
    opts.workers = 1;
    Server server(opts);
    server.start();

    Client client = Client::connect(opts.socketPath);
    client.setTimeout(std::chrono::milliseconds(10000));
    client.sendRaw("{this is not json");
    auto reply = client.receiveRaw();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(json::Value::parse(*reply).getString("status"), "error");

    json::Object bogus;
    bogus["op"] = "frobnicate";
    const json::Value bad = client.request(json::Value(bogus));
    EXPECT_EQ(bad.getString("status"), "error");

    // Framing survived both: the same connection still verifies.
    const json::Value ok = client.request(
        json::Value(verifyRequest(kSb)));
    ASSERT_EQ(ok.getString("status"), "ok") << ok.serialize();
    EXPECT_EQ(ok.get("result")->getString("verdict"), "Allow")
        << "SB without fences allows the stale-stale outcome";
    server.stop();
}

TEST(Server, OversizedFrameGetsErrorThenClose)
{
    ServeOptions opts;
    opts.socketPath = socketPath("oversized");
    opts.workers = 1;
    opts.maxFrameBytes = 256;
    Server server(opts);
    server.start();

    Client client = Client::connect(opts.socketPath);
    client.setTimeout(std::chrono::milliseconds(10000));
    // The bare header declaring 1000 bytes is enough to be rejected;
    // sending no payload keeps the server's receive queue empty, so
    // its close cannot RST away the error frame below.
    const unsigned char header[4] = {0, 0, 0x03, 0xe8};
    ASSERT_EQ(::send(client.fd(), header, 4, MSG_NOSIGNAL), 4);
    auto reply = client.receiveRaw();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(json::Value::parse(*reply).getString("status"), "error");
    // The stream is desynchronized past the declared length, so the
    // server must hang up rather than misparse what follows.
    EXPECT_FALSE(client.receiveRaw().has_value());

    // Admission is per-connection: a well-behaved client is intact.
    const json::Value ok =
        request(opts.socketPath, verifyRequest(kMp));
    EXPECT_EQ(ok.getString("status"), "ok");
    server.stop();
}

TEST(Server, ClientVanishingMidFrameHurtsOnlyItself)
{
    ServeOptions opts;
    opts.socketPath = socketPath("vanish");
    opts.workers = 1;
    Server server(opts);
    server.start();

    {
        // Half a header, then gone: the classic torn client.
        Client client = Client::connect(opts.socketPath);
        const char halfHeader[2] = {0, 0};
        ASSERT_EQ(::send(client.fd(), halfHeader, 2, MSG_NOSIGNAL), 2);
    }
    {
        // A full request whose reply nobody reads.
        Client client = Client::connect(opts.socketPath);
        client.sendRaw(json::Value(verifyRequest(kMp)).serialize());
    }

    // The daemon keeps serving; the torn peer shows up in the
    // disconnect counter (reaped on some later accept iteration).
    const json::Value ok =
        request(opts.socketPath, verifyRequest(kSb));
    EXPECT_EQ(ok.getString("status"), "ok") << ok.serialize();
    server.stop();
    EXPECT_GE(server.stats().disconnects, 1u);
}

TEST(Server, UnknownModelSpecIsAnErrorNotACrash)
{
    ServeOptions opts;
    opts.socketPath = socketPath("badmodel");
    opts.workers = 1;
    Server server(opts);
    server.start();

    json::Object req = verifyRequest(kMp);
    req["model"] = "nonesuch";
    const json::Value resp =
        request(opts.socketPath, json::Value(req));
    EXPECT_EQ(resp.getString("status"), "error");
    server.stop();
}

TEST(Server, StatsOpReportsCountersAndCache)
{
    ServeOptions opts;
    opts.socketPath = socketPath("stats");
    opts.workers = 1;
    Server server(opts);
    server.start();

    request(opts.socketPath, verifyRequest(kMp));
    request(opts.socketPath, verifyRequest(kMp));

    json::Object statsReq;
    statsReq["op"] = "stats";
    const json::Value resp =
        request(opts.socketPath, json::Value(statsReq));
    ASSERT_EQ(resp.getString("status"), "ok");
    const json::Value *stats = resp.get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->getInt("cache_hits"), 1);
    const json::Value *cache = stats->get("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->getInt("entries"), 1);
    server.stop();
}

TEST(Server, MultiClientStressAllVerdictsCorrect)
{
    ServeOptions opts;
    opts.socketPath = socketPath("stress");
    opts.workers = 4;
    opts.cache.path = cachePath("stress");
    Server server(opts);
    server.start();

    // Eight concurrent clients hammering both tests, half of them
    // bypassing the cache so cold and warm paths race.  Run under
    // TSan in CI, this is the data-race detector for the whole
    // accept/connection/pool/cache surface.
    constexpr int kClients = 8;
    constexpr int kRequests = 6;
    std::vector<std::thread> clients;
    std::atomic<int> wrong{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequests; ++r) {
                json::Object req = verifyRequest(
                    (c + r) % 2 == 0 ? kMp : kSb);
                if (c % 2 == 0)
                    req["nocache"] = true;
                json::Value resp;
                try {
                    resp = request(opts.socketPath,
                                   json::Value(std::move(req)));
                } catch (const std::exception &) {
                    ++wrong;
                    continue;
                }
                if (resp.getString("status") != "ok" ||
                    resp.get("result")->getString("verdict") !=
                        "Allow") {
                    ++wrong;
                }
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    // served is counted after the response write, so only stop()'s
    // join makes the tally final.
    server.stop();
    EXPECT_EQ(server.stats().served,
              static_cast<std::uint64_t>(kClients * kRequests));
}

} // namespace
} // namespace lkmm::serve

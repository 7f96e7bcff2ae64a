/**
 * @file
 * lkmm-serve — the persistent verification daemon and its client.
 *
 * Daemon mode binds a unix socket and answers length-prefixed JSON
 * verification requests, backed by a crash-safe journaled verdict
 * cache.  By default requests run on a crash-only pool of isolated
 * worker processes — a worker segfault, abort, OOM, or hang costs
 * exactly one sound Unknown response, never the daemon — with
 * self-healing respawn and a poison-pill quarantine in front;
 * --inproc keeps the PR-4 in-thread engine for comparison:
 *
 *   lkmm-serve --socket /tmp/lkmm.sock --cache /tmp/lkmm-cache.jsonl
 *
 * Client mode sends requests to a running daemon:
 *
 *   lkmm-serve --client --socket /tmp/lkmm.sock litmus/tests/sb+mbs.litmus
 *   lkmm-serve --client --socket /tmp/lkmm.sock --stats
 *
 * SIGTERM/SIGINT drain in-flight requests, deliver their responses,
 * flush the cache journal and exit 0; SIGPIPE is ignored process-wide
 * (a vanished client is that client's problem, never the daemon's).
 *
 * Exit status — daemon: 0 clean shutdown, 1 configuration/fatal
 * error.  Client: 0 every request answered "ok", 1 usage or
 * transport failure, 2 at least one error/shed response (the daemon
 * degraded soundly; the answer was Unknown or an error).
 */

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>

#include "base/budget.hh"
#include "base/status.hh"
#include "serve/server.hh"

namespace
{

lkmm::CancelToken g_cancel;

void
onSignal(int)
{
    g_cancel.cancel(); // single atomic store: async-signal-safe
}

void
installSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: the run loop must wake up
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A peer closing its socket mid-write must surface as EPIPE on
    // that one connection, not kill the whole daemon.
    signal(SIGPIPE, SIG_IGN);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lkmm-serve --socket PATH [daemon options]\n"
        "       lkmm-serve --client --socket PATH [request options] "
        "[FILE.litmus ...]\n"
        "       lkmm-serve --self-smoke\n"
        "\n"
        "daemon options:\n"
        "  --socket PATH          unix socket to bind (required)\n"
        "  --model SPEC           default model (registry name or\n"
        "                         cat:FILE; default lkmm)\n"
        "  --jobs N               verification workers (0 = all\n"
        "                         hardware threads; default 0)\n"
        "  --workers N            alias for --jobs that also forces\n"
        "                         the isolated worker-process tier\n"
        "  --inproc               run verification on the dispatch\n"
        "                         threads instead of isolated worker\n"
        "                         processes (shared address space)\n"
        "  --worker-recycle-requests N\n"
        "                         retire each worker process after N\n"
        "                         requests (default 0 = never)\n"
        "  --worker-rss-limit-mb N\n"
        "                         retire a worker whose RSS exceeds\n"
        "                         N MiB (default 0 = never)\n"
        "  --worker-deadline-ms N watchdog for requests without a\n"
        "                         deadline of their own (0 = none)\n"
        "  --quarantine-crashes N refuse a request fingerprint after\n"
        "                         N worker crashes (default 3, 0 = "
        "off)\n"
        "  --queue-depth N        admission bound: requests past N\n"
        "                         queued-or-running are shed with a\n"
        "                         sound Unknown (default 64, 0 = off)\n"
        "  --deadline-ms N        default per-request deadline\n"
        "  --max-deadline-ms N    cap on client-requested deadlines\n"
        "  --max-frame-bytes N    reject larger frames (default 1MiB)\n"
        "  --cache FILE           verdict-cache journal (omit for a\n"
        "                         memory-only cache)\n"
        "  --cache-max-entries N  LRU capacity (default unbounded)\n"
        "  --cache-compact-bytes N  compact the journal past N bytes\n"
        "  --fsync                power-loss-safe cache appends\n"
        "  --quiet                suppress status lines\n"
        "\n"
        "client options (with --client):\n"
        "  --socket PATH          daemon socket (required)\n"
        "  --model SPEC           model for verify requests\n"
        "  --deadline-ms N        request deadline\n"
        "  --nocache              bypass the daemon's verdict cache\n"
        "  --ping | --stats | --shutdown\n"
        "                         control requests instead of files\n"
        "                         (these imply --client)\n"
        "  --oversized-probe      send an oversized frame and expect\n"
        "                         a sound error response\n"
        "  --malformed-probe      send unparseable JSON and expect an\n"
        "                         error reply on a surviving stream\n"
        "\n"
        "  --self-smoke           in-process end-to-end check\n"
        "\n%s",
        lkmm::EngineConfig::flagHelp());
    return 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw lkmm::StatusError(lkmm::Status(
            lkmm::StatusCode::IoError, "cannot read " + path));
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The big-endian length prefix of a frame, crafted by hand. */
void
sendRawHeader(int fd, std::uint32_t declared)
{
    unsigned char header[4] = {
        static_cast<unsigned char>((declared >> 24) & 0xff),
        static_cast<unsigned char>((declared >> 16) & 0xff),
        static_cast<unsigned char>((declared >> 8) & 0xff),
        static_cast<unsigned char>(declared & 0xff),
    };
    (void)::send(fd, header, sizeof(header), MSG_NOSIGNAL);
}

struct Options
{
    bool client = false;
    bool selfSmoke = false;
    bool quiet = false;
    bool nocache = false;
    bool ping = false;
    bool stats = false;
    bool shutdown = false;
    bool oversizedProbe = false;
    bool malformedProbe = false;
    long deadlineMs = 0;
    std::vector<std::string> files;
    lkmm::serve::ServeOptions serve;
};

int
runDaemon(const Options &opt)
{
    lkmm::serve::Server server(opt.serve);
    if (!opt.quiet) {
        std::printf("lkmm-serve: listening on %s (model %s, %s)\n",
                    opt.serve.socketPath.c_str(),
                    opt.serve.model.c_str(),
                    opt.serve.isolation ==
                            lkmm::serve::ServeIsolation::Workers
                        ? "isolated workers"
                        : "in-process");
        std::fflush(stdout);
    }
    server.run(&g_cancel);
    const lkmm::serve::ServerStats s = server.stats();
    const lkmm::serve::CacheStats c = server.cacheStats();
    if (!opt.quiet) {
        std::printf("lkmm-serve: drained; served %llu/%llu requests "
                    "(%llu cache hits, %llu shed, %llu errors, "
                    "%llu cache write errors)\n",
                    static_cast<unsigned long long>(s.served),
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.cacheHits),
                    static_cast<unsigned long long>(s.shedQueueFull +
                                                    s.shedDeadline),
                    static_cast<unsigned long long>(s.errors),
                    static_cast<unsigned long long>(c.writeErrors));
    }
    return 0;
}

int
runClient(const Options &opt)
{
    using lkmm::json::Object;
    using lkmm::json::Value;
    lkmm::serve::Client client =
        lkmm::serve::Client::connect(opt.serve.socketPath);
    client.setTimeout(std::chrono::milliseconds(60000));

    if (opt.oversizedProbe) {
        // Declare a giant frame; a robust daemon answers with a
        // structured error (never a stall, never a crash) and drops
        // the desynchronized stream.
        sendRawHeader(client.fd(), 0x7fffffffu);
        const std::optional<std::string> raw = client.receiveRaw();
        if (!raw) {
            std::fprintf(stderr, "oversized-probe: no response\n");
            return 1;
        }
        const Value response = Value::parse(*raw);
        std::printf("oversized-probe: %s\n", response.serialize().c_str());
        return response.getString("status") == "error" ? 2 : 1;
    }
    if (opt.malformedProbe) {
        // Garbage inside a well-formed frame: the daemon must answer
        // with a structured error and keep the conversation alive —
        // the follow-up ping proves the stream survived.
        client.sendRaw("{this is not json");
        const std::optional<std::string> raw = client.receiveRaw();
        if (!raw) {
            std::fprintf(stderr, "malformed-probe: no response\n");
            return 1;
        }
        const Value response = Value::parse(*raw);
        std::printf("malformed-probe: %s\n",
                    response.serialize().c_str());
        if (response.getString("status") != "error")
            return 1;
        Object pingReq;
        pingReq["op"] = "ping";
        const Value pong = client.request(Value(std::move(pingReq)));
        return pong.getString("status") == "ok" ? 2 : 1;
    }
    if (opt.ping || opt.stats || opt.shutdown) {
        Object req;
        req["op"] = opt.ping ? "ping"
                             : (opt.stats ? "stats" : "shutdown");
        const Value response = client.request(Value(std::move(req)));
        std::printf("%s\n", response.pretty().c_str());
        return response.getString("status") == "ok" ? 0 : 2;
    }
    if (opt.files.empty()) {
        std::fprintf(stderr,
                     "lkmm-serve --client: no litmus files given\n");
        return 1;
    }

    int exitCode = 0;
    for (const std::string &file : opt.files) {
        Object req;
        req["op"] = "verify";
        req["litmus"] = readFile(file);
        if (!opt.serve.model.empty())
            req["model"] = opt.serve.model;
        if (opt.deadlineMs > 0)
            req["deadline_ms"] =
                static_cast<std::int64_t>(opt.deadlineMs);
        if (opt.nocache)
            req["nocache"] = true;
        const Value response = client.request(Value(std::move(req)));
        const std::string status = response.getString("status");
        if (status == "ok") {
            const Value *result = response.get("result");
            std::printf(
                "%s: %s (%s%s)\n", file.c_str(),
                result ? result->getString("verdict").c_str() : "?",
                result ? result->getString("completeness").c_str()
                       : "?",
                response.getBool("cached") ? ", cached" : "");
        } else if (status == "shed") {
            std::printf("%s: %s (shed: %s)\n", file.c_str(),
                        response.getString("verdict").c_str(),
                        response.getString("reason").c_str());
            exitCode = 2;
        } else if (status == "crash") {
            // Sound degradation from the worker tier: the isolated
            // worker died or hit its watchdog, this one request pays.
            std::printf("%s: %s (%s: %s)\n", file.c_str(),
                        response.getString("verdict").c_str(),
                        response.getString("reason").c_str(),
                        response.getString("detail").c_str());
            exitCode = 2;
        } else {
            std::printf("%s: error: %s: %s\n", file.c_str(),
                        response.getString("code").c_str(),
                        response.getString("message").c_str());
            exitCode = 2;
        }
    }
    return exitCode;
}

/**
 * End-to-end smoke entirely in one process: daemon up, cold verify,
 * byte-identical warm hit, malformed + oversized requests answered
 * soundly, warm restart from the journal.  Exercises the same paths
 * CI's serve-smoke job drives across processes.
 */
int
runSelfSmoke()
{
    using lkmm::json::Object;
    using lkmm::json::Value;
    using lkmm::serve::Client;

    char dirTemplate[] = "/tmp/lkmm-serve-smoke-XXXXXX";
    if (!mkdtemp(dirTemplate)) {
        std::fprintf(stderr, "self-smoke: mkdtemp failed\n");
        return 1;
    }
    const std::string dir = dirTemplate;

    lkmm::serve::ServeOptions serveOpts;
    serveOpts.socketPath = dir + "/serve.sock";
    serveOpts.workers = 2;
    serveOpts.cache.path = dir + "/cache.jsonl";

    int failures = 0;
    auto check = [&failures](bool ok, const char *what) {
        if (ok) {
            std::printf("self-smoke ok: %s\n", what);
        } else {
            std::fprintf(stderr, "self-smoke FAIL: %s\n", what);
            ++failures;
        }
    };

    const char *mp =
        "C MP\n\n{ x=0; y=0; }\n\n"
        "P0(int *x, int *y) {\n"
        "  WRITE_ONCE(*x, 1);\n"
        "  WRITE_ONCE(*y, 1);\n"
        "}\n\n"
        "P1(int *x, int *y) {\n"
        "  int r0 = READ_ONCE(*y);\n"
        "  int r1 = READ_ONCE(*x);\n"
        "}\n\n"
        "exists (1:r0=1 /\\ 1:r1=0)\n";

    Object verifyReq;
    verifyReq["op"] = "verify";
    verifyReq["litmus"] = mp;
    const Value verify(verifyReq);

    std::string coldResult;
    {
        lkmm::serve::Server server(serveOpts);
        server.start();
        Client client = Client::connect(serveOpts.socketPath);
        client.setTimeout(std::chrono::milliseconds(30000));

        const Value cold = client.request(verify);
        check(cold.getString("status") == "ok" &&
                  !cold.getBool("cached"),
              "cold verify computes");
        const Value *coldR = cold.get("result");
        check(coldR &&
                  coldR->getString("verdict") == "Allow",
              "MP without fences is Allowed");
        coldResult = coldR ? coldR->serialize() : "";

        const Value warm = client.request(verify);
        check(warm.getString("status") == "ok" &&
                  warm.getBool("cached"),
              "repeat request hits the cache");
        check(warm.get("result") &&
                  warm.get("result")->serialize() == coldResult,
              "cache hit is byte-identical to the cold result");

        client.sendRaw("{this is not json");
        const std::optional<std::string> malformed =
            client.receiveRaw();
        check(malformed && Value::parse(*malformed)
                                   .getString("status") == "error",
              "malformed JSON earns an error response");
        check(client.request(verify).getString("status") == "ok",
              "connection survives the malformed frame");

        Object pingReq;
        pingReq["op"] = "ping";
        check(client.request(Value(pingReq)).getBool("pong"),
              "ping");
        Object statsReq;
        statsReq["op"] = "stats";
        const Value stats = client.request(Value(statsReq));
        check(stats.get("stats") &&
                  stats.get("stats")->get("cache") != nullptr,
              "stats reports cache counters");

        Client prober = Client::connect(serveOpts.socketPath);
        prober.setTimeout(std::chrono::milliseconds(30000));
        sendRawHeader(prober.fd(), 0x7fffffffu);
        const std::optional<std::string> oversized =
            prober.receiveRaw();
        check(oversized &&
                  Value::parse(*oversized).getString("status") ==
                      "error",
              "oversized frame earns an error response");
        check(!prober.receiveRaw(),
              "oversized frame closes that stream");

        server.stop();
    }
    {
        // Restart on the same journal: the very first request must
        // be a warm, byte-identical hit.
        lkmm::serve::Server server(serveOpts);
        server.start();
        Client client = Client::connect(serveOpts.socketPath);
        client.setTimeout(std::chrono::milliseconds(30000));
        const Value warm = client.request(verify);
        check(warm.getString("status") == "ok" &&
                  warm.getBool("cached"),
              "restarted daemon serves from the recovered journal");
        check(warm.get("result") &&
                  warm.get("result")->serialize() == coldResult,
              "recovered hit is byte-identical to the cold result");
        server.stop();
    }

    if (failures == 0) {
        std::printf("SELF-SMOKE OK\n");
        return 0;
    }
    std::fprintf(stderr, "SELF-SMOKE: %d failure(s)\n", failures);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    auto needValue = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "lkmm-serve: %s needs a value\n",
                         flag);
            std::exit(1);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage();
        else if (arg == "--client")
            opt.client = true;
        else if (arg == "--self-smoke")
            opt.selfSmoke = true;
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--nocache")
            opt.nocache = true;
        else if (arg == "--ping")
            opt.ping = true;
        else if (arg == "--stats")
            opt.stats = true;
        else if (arg == "--shutdown")
            opt.shutdown = true;
        else if (arg == "--oversized-probe")
            opt.oversizedProbe = true;
        else if (arg == "--malformed-probe")
            opt.malformedProbe = true;
        else if (arg == "--fsync")
            opt.serve.cache.durability =
                lkmm::journal::Durability::Fsync;
        else if (arg == "--socket")
            opt.serve.socketPath = needValue(i, "--socket");
        else if (arg == "--model")
            opt.serve.model = needValue(i, "--model");
        else if (arg == "--cache")
            opt.serve.cache.path = needValue(i, "--cache");
        else if (arg == "--jobs")
            opt.serve.workers = std::strtoul(
                needValue(i, "--jobs"), nullptr, 10);
        else if (arg == "--workers") {
            opt.serve.workers = std::strtoul(
                needValue(i, "--workers"), nullptr, 10);
            opt.serve.isolation =
                lkmm::serve::ServeIsolation::Workers;
        } else if (arg == "--inproc")
            opt.serve.isolation =
                lkmm::serve::ServeIsolation::InProcess;
        else if (arg == "--worker-recycle-requests")
            opt.serve.workerRecycleRequests = std::strtoull(
                needValue(i, "--worker-recycle-requests"), nullptr,
                10);
        else if (arg == "--worker-rss-limit-mb")
            opt.serve.workerRssLimitMb = std::strtoul(
                needValue(i, "--worker-rss-limit-mb"), nullptr, 10);
        else if (arg == "--worker-deadline-ms")
            opt.serve.workerDeadline = std::chrono::milliseconds(
                std::strtol(needValue(i, "--worker-deadline-ms"),
                            nullptr, 10));
        else if (arg == "--quarantine-crashes")
            opt.serve.quarantineCrashes = static_cast<int>(
                std::strtol(needValue(i, "--quarantine-crashes"),
                            nullptr, 10));
        else if (arg == "--queue-depth")
            opt.serve.maxPending = std::strtoul(
                needValue(i, "--queue-depth"), nullptr, 10);
        else if (arg == "--deadline-ms")
            opt.deadlineMs = std::strtol(
                needValue(i, "--deadline-ms"), nullptr, 10);
        else if (arg == "--max-deadline-ms")
            opt.serve.maxDeadline = std::chrono::milliseconds(
                std::strtol(needValue(i, "--max-deadline-ms"),
                            nullptr, 10));
        else if (arg == "--max-frame-bytes")
            opt.serve.maxFrameBytes = static_cast<std::uint32_t>(
                std::strtoul(needValue(i, "--max-frame-bytes"),
                             nullptr, 10));
        else if (arg == "--cache-max-entries")
            opt.serve.cache.maxEntries = std::strtoul(
                needValue(i, "--cache-max-entries"), nullptr, 10);
        else if (arg == "--cache-compact-bytes")
            opt.serve.cache.compactBytes = std::strtoull(
                needValue(i, "--cache-compact-bytes"), nullptr, 10);
        else if (arg.rfind("--engine", 0) == 0) {
            auto next = [&]() -> std::string {
                const char *v = needValue(i, arg.c_str());
                if (!v)
                    std::exit(usage());
                return v;
            };
            try {
                if (!opt.serve.engine.parseFlag(arg, next))
                    return usage();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "lkmm-serve: %s\n", e.what());
                return 1;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "lkmm-serve: unknown option %s\n",
                         arg.c_str());
            return usage();
        } else {
            opt.files.push_back(arg);
        }
    }

    installSignalHandlers();

    try {
        if (opt.selfSmoke)
            return runSelfSmoke();
        if (opt.serve.socketPath.empty()) {
            std::fprintf(stderr,
                         "lkmm-serve: --socket is required\n");
            return usage();
        }
        // Control requests and probes are client operations by
        // nature; without this a bare `--socket X --ping` would
        // silently become a second daemon and steal the socket.
        if (opt.client || opt.ping || opt.stats || opt.shutdown ||
            opt.oversizedProbe || opt.malformedProbe)
            return runClient(opt);
        opt.serve.defaultDeadline =
            std::chrono::milliseconds(opt.deadlineMs);
        return runDaemon(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lkmm-serve: %s\n", e.what());
        return 1;
    }
}

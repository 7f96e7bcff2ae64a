/**
 * @file
 * lkmm-perfbench: the repository benchmark's measuring binary.
 *
 *   lkmm-perfbench --workload scale-lkmm|diy-mine|serve-mixed
 *                  --seed N --seconds S --trace 0|1
 *                  --work-dir DIR [--serve-bin PATH]
 *
 * Run from the repository root (it reads tests/litmus/scale,
 * tests/golden/catalog.json and cat/models/lkmm.cat).  Prints
 * progress and per-layer tables, then, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  A wrong
 * verdict or broken invariant exits 3 without that line.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: lkmm-perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--serve-bin PATH]\n"
                 "workloads: scale-lkmm, diy-mine, serve-mixed\n");
    return 2;
}

void
printResult(const Outcome &out)
{
    std::string line = "{\"correct\": true, \"attempted\": " +
                       std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atoi(val.c_str());
        else if (arg == "--trace")
            opts.trace = val == "1";
        else if (arg == "--work-dir")
            opts.workDir = val;
        else if (arg == "--serve-bin")
            opts.serveBin = val;
        else
            return usage();
    }
    if (opts.workload.empty() || opts.workDir.empty() || opts.seconds < 1)
        return usage();
    const unsigned hw = std::thread::hardware_concurrency();
    opts.parallelism = static_cast<int>(std::min(4u, hw ? hw : 1u));

    std::printf("workload %s seed %llu seconds %d trace %d "
                "parallelism %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.parallelism);
    std::fflush(stdout);
    try {
        Outcome out;
        if (opts.workload == "scale-lkmm")
            out = runScale(opts);
        else if (opts.workload == "diy-mine")
            out = runDiyMine(opts);
        else if (opts.workload == "serve-mixed")
            out = runServeMixed(opts);
        else
            return usage();
        printResult(out);
    } catch (const BenchFailure &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 4;
    }
    return 0;
}

#include "exec/engine_config.hh"

#include <chrono>
#include <cstdint>

#include "base/status.hh"

namespace lkmm
{

std::string
EngineConfig::modeName() const
{
    return enumerate == EngineMode::Brute ? "brute" : "rf-first";
}

void
EngineConfig::setMode(const std::string &name)
{
    if (name == "rf-first") {
        enumerate = EngineMode::RfFirst;
    } else if (name == "brute") {
        enumerate = EngineMode::Brute;
    } else {
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown engine mode '" + name +
                                     "' (expected rf-first or brute)"));
    }
}

json::Object
EngineConfig::toJson() const
{
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    json::Object o;
    o["engine"] = modeName();
    o["max_candidates"] = budget.maxCandidates;
    o["max_eval_steps"] = budget.maxEvalSteps;
    o["max_rf"] = budget.maxRfAssignments;
    o["wall_clock_ms"] = static_cast<std::int64_t>(
        duration_cast<milliseconds>(budget.wallClock).count());
    return o;
}

EngineConfig
EngineConfig::fromJson(const json::Value &v)
{
    EngineConfig cfg;
    if (const json::Value *m = v.get("engine"))
        cfg.setMode(m->asString());
    if (const json::Value *n = v.get("max_candidates"))
        cfg.budget.maxCandidates =
            static_cast<std::size_t>(n->asInt());
    if (const json::Value *n = v.get("max_eval_steps"))
        cfg.budget.maxEvalSteps = static_cast<std::size_t>(n->asInt());
    if (const json::Value *n = v.get("max_rf"))
        cfg.budget.maxRfAssignments =
            static_cast<std::size_t>(n->asInt());
    if (const json::Value *n = v.get("wall_clock_ms"))
        cfg.budget.wallClock = std::chrono::milliseconds(n->asInt());
    return cfg;
}

std::string
EngineConfig::canonicalKey() const
{
    return json::Value(toJson()).serialize();
}

bool
EngineConfig::parseFlag(const std::string &arg,
                        const std::function<std::string()> &next)
{
    const auto toCount = [](const std::string &s) {
        try {
            return static_cast<std::size_t>(std::stoull(s));
        } catch (...) {
            throw StatusError(Status(StatusCode::InvalidArgument,
                                     "bad engine flag value '" + s +
                                         "'"));
        }
    };
    if (arg == "--engine") {
        setMode(next());
        return true;
    }
    if (arg == "--engine-time-limit-ms") {
        budget.wallClock = std::chrono::milliseconds(
            static_cast<std::int64_t>(toCount(next())));
        return true;
    }
    if (arg == "--engine-max-candidates") {
        budget.maxCandidates = toCount(next());
        return true;
    }
    if (arg == "--engine-max-rf") {
        budget.maxRfAssignments = toCount(next());
        return true;
    }
    if (arg == "--engine-max-eval-steps") {
        budget.maxEvalSteps = toCount(next());
        return true;
    }
    return false;
}

const char *
EngineConfig::flagHelp()
{
    return "engine (shared by lkmm-sweep/fuzz/serve/chaos; "
           "0 = unlimited):\n"
           "  --engine MODE       rf-first | brute (default: rf-first;\n"
           "                      brute is the brute-force oracle)\n"
           "  --engine-time-limit-ms N   per-run wall-clock budget\n"
           "  --engine-max-candidates N  candidate cap per run\n"
           "  --engine-max-rf N          rf-assignment cap per run\n"
           "  --engine-max-eval-steps N  cat eval-step cap per run\n";
}

} // namespace lkmm

/**
 * @file
 * Differential test of the native LKMM check.
 *
 * LkmmModel::check() computes Figures 8 and 12 with destination-
 * passing kernels, memoizes its static and rf stages on the
 * execution's rfStamp(), skips the RCU fixpoint when gp is empty and
 * builds a witness only for a failing axiom.  The reference below is
 * the value-semantics transcription: buildRelations() plus
 * Relation::findCycle and the value helpers, every axiom in the
 * paper's order.  The two must report the same axiom and the same
 * witness on every candidate of the catalog, the litmus tree, the
 * edge corpus and the scale corpus, under both engines, for the
 * default Config and each single-knob ablation.
 *
 * The remaining tests pin the memo's hazards: executions with
 * different rf checked alternately, Configs alternating on one
 * execution, a copy checked after its original was re-finalized, and
 * an RCU test whose gp is non-empty.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/enumerate.hh"
#include "litmus/builder.hh"
#include "litmus/parser.hh"
#include "lkmm/catalog.hh"
#include "lkmm/runner.hh"
#include "model/lkmm_model.hh"

namespace lkmm
{
namespace
{

/** The value-semantics reference check. */
std::optional<Violation>
referenceCheck(const LkmmModel &model, const CandidateExecution &ex)
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

std::string
describe(const std::optional<Violation> &v)
{
    if (!v)
        return "allowed";
    std::string out = v->axiom;
    for (EventId e : v->cycle)
        out += " " + std::to_string(e);
    return out;
}

/** The default Config and each single-knob ablation. */
std::vector<std::pair<std::string, LkmmModel::Config>>
configs()
{
    std::vector<std::pair<std::string, LkmmModel::Config>> out;
    out.emplace_back("default", LkmmModel::Config{});
    LkmmModel::Config c;
    c.rcuAxiom = false;
    out.emplace_back("no-rcu-axiom", c);
    c = {};
    c.rrdepPrefix = false;
    out.emplace_back("no-rrdep-prefix", c);
    c = {};
    c.freeRrdep = true;
    out.emplace_back("free-rrdep", c);
    c = {};
    c.aCumulativity = false;
    out.emplace_back("no-a-cumulativity", c);
    c = {};
    c.gpIsStrongFence = false;
    out.emplace_back("gp-not-strong-fence", c);
    return out;
}

struct Entry
{
    std::string name;
    Program prog;
};

std::vector<Entry>
dirEntries(const std::string &dir, const std::string &prefix)
{
    namespace fs = std::filesystem;
    std::vector<Entry> out;
    for (const fs::directory_entry &de : fs::directory_iterator(dir)) {
        if (de.path().extension() != ".litmus")
            continue;
        out.push_back({prefix + de.path().stem().string(),
                       parseLitmusFile(de.path().string())});
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
    return out;
}

/** Outcome tally per axiom ("allowed" for none) over a corpus. */
using Tally = std::map<std::string, std::size_t>;

/** Compare native and reference on one candidate; false on mismatch. */
bool
agrees(const std::string &where, const LkmmModel &model,
       const CandidateExecution &ex, Tally &tally)
{
    const auto native = model.check(ex);
    const auto ref = referenceCheck(model, ex);
    ++tally[native ? native->axiom : "allowed"];
    const bool same = native.has_value() == ref.has_value() &&
        (!native ||
         (native->axiom == ref->axiom && native->cycle == ref->cycle));
    if (!same) {
        ADD_FAILURE() << where << ": native " << describe(native)
                      << ", reference " << describe(ref) << "\n"
                      << "  rf=" << ex.rf.toString()
                      << " co=" << ex.co.toString();
    }
    return same;
}

/**
 * Every candidate of every entry under both engines and every
 * Config.  rf-first runs one pass per Config, so consecutive
 * candidates share an rf and the memo is hit; brute re-finalizes each
 * candidate (a fresh stamp each time) and checks all Configs on it in
 * turn, so the memo key alternates between models on one execution.
 */
Tally
checkCorpus(const std::vector<Entry> &entries)
{
    std::vector<std::pair<std::string, LkmmModel>> models;
    for (const auto &[name, cfg] : configs())
        models.emplace_back(name, LkmmModel(cfg));

    Tally tally;
    for (const Entry &entry : entries) {
        std::size_t mismatches = 0;
        for (const auto &[cfgName, model] : models) {
            Enumerator en(entry.prog, RunBudget::unlimited(),
                          EngineMode::RfFirst, model.saturationSupport());
            en.forEach([&](const CandidateExecution &ex) {
                mismatches += !agrees(entry.name + " rf-first " + cfgName,
                                      model, ex, tally);
                return mismatches < 5;
            });
        }
        Enumerator brute(entry.prog, RunBudget::unlimited(),
                         EngineMode::Brute, {});
        brute.forEach([&](const CandidateExecution &ex) {
            for (const auto &[cfgName, model] : models) {
                mismatches += !agrees(entry.name + " brute " + cfgName,
                                      model, ex, tally);
            }
            return mismatches < 5;
        });
    }
    return tally;
}

std::vector<Entry>
catalogEntries()
{
    std::vector<Entry> out;
    for (const CatalogEntry &e : table5())
        out.push_back({e.prog.name, e.prog});
    return out;
}

TEST(LkmmCheck, CatalogMatchesReference)
{
    const Tally tally = checkCorpus(catalogEntries());
    // The catalog's candidates fail hb, pb and rcu (the enumerator
    // delivers none of them incoherent, and none has an RMW), so an
    // axiom the native check skipped would not pass vacuously.
    for (const char *axiom :
         {"allowed", "happens-before", "propagates-before", "rcu"})
        EXPECT_GT(tally.count(axiom), 0u) << axiom;
}

TEST(LkmmCheck, LitmusTreeMatchesReference)
{
    checkCorpus(dirEntries(LKMM_LITMUS_DIR, "litmus/"));
}

TEST(LkmmCheck, EdgeCorpusMatchesReference)
{
    checkCorpus(dirEntries(LKMM_EDGE_CORPUS_DIR, "edge/"));
}

TEST(LkmmCheck, ScaleCorpusMatchesReference)
{
    const Tally tally = checkCorpus(dirEntries(LKMM_SCALE_DIR, "scale/"));
    for (const char *axiom :
         {"allowed", "sc-per-variable", "propagates-before"})
        EXPECT_GT(tally.count(axiom), 0u) << axiom;
}

TEST(LkmmCheck, RmwAtomicityMatchesReference)
{
    // No corpus test has an RMW: two racing xchg()s on one location,
    // whose brute candidates include both reading the initial value.
    LitmusBuilder b("xchg-race");
    const LocId x = b.loc("x");
    const RegRef r0 = b.thread().xchgRelaxed(x, Value{1});
    const RegRef r1 = b.thread().xchgRelaxed(x, Value{2});
    b.exists(Cond::andOf(eq(r0, 0), eq(r1, 0)));
    const Tally tally = checkCorpus({{"xchg-race", b.build()}});
    EXPECT_GT(tally.count("atomicity"), 0u);
    EXPECT_GT(tally.count("allowed"), 0u);
}

/**
 * Copies of every candidate of `prog` under the production engine.
 * They point at `prog`, which must outlive them.
 */
std::vector<CandidateExecution>
candidates(const Program &prog)
{
    std::vector<CandidateExecution> out;
    Enumerator en(prog);
    en.forEach([&](const CandidateExecution &ex) {
        out.push_back(ex);
        return true;
    });
    return out;
}

Program
litmusFile(const std::string &name)
{
    return parseLitmusFile(std::string(LKMM_LITMUS_DIR) + "/" + name);
}

TEST(LkmmCheckMemo, AlternatingRfOnOneThread)
{
    // wrc+po-rel+rmb: cumul-fence holds rfe; po-rel, so the memoized
    // rf stage differs between candidates with different rf, and the
    // exists candidate is forbidden only through it.  Checked
    // alternately, each candidate must be judged on its own rf, not
    // the previous one's.
    const LkmmModel model;
    const Program prog = litmusFile("wrc+po-rel+rmb.litmus");
    const auto cands = candidates(prog);
    ASSERT_GE(cands.size(), 2u);
    Tally tally;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        for (std::size_t j = 0; j < cands.size(); ++j) {
            agrees("first", model, cands[i], tally);
            agrees("second", model, cands[j], tally);
        }
    }
    EXPECT_GT(tally["allowed"], 0u);
    EXPECT_GT(tally["happens-before"], 0u);
}

TEST(LkmmCheckMemo, AlternatingConfigsOnOneExecution)
{
    // Without the A-cumulativity knob, wrc+po-rel+rmb's exists
    // candidate is allowed; with it, forbidden.  Two models with
    // different Configs on one execution must not share a memo.
    const Program prog = litmusFile("wrc+po-rel+rmb.litmus");
    const auto cands = candidates(prog);
    LkmmModel::Config noCumul;
    noCumul.aCumulativity = false;
    const LkmmModel full, ablated(noCumul);
    std::size_t differ = 0;
    Tally tally;
    for (const CandidateExecution &ex : cands) {
        for (int round = 0; round < 2; ++round) {
            agrees("full", full, ex, tally);
            agrees("no-a-cumulativity", ablated, ex, tally);
        }
        differ += full.allows(ex) != ablated.allows(ex);
    }
    EXPECT_GT(differ, 0u);
}

TEST(LkmmCheckMemo, CopyCheckedAfterOriginalRefinalized)
{
    // A copy keeps its original's stamp.  Re-finalizing the original
    // with another candidate's rf gives it a fresh stamp, so neither
    // may be judged on the other's memoized rf stage.  Every
    // (forbidden, allowed) pair of wrc+po-rel+rmb, both ways round.
    const LkmmModel model;
    const Program prog = litmusFile("wrc+po-rel+rmb.litmus");
    const auto cands = candidates(prog);
    std::size_t pairs = 0;
    Tally tally;
    for (const CandidateExecution &from : cands) {
        for (const CandidateExecution &to : cands) {
            if (model.allows(from) == model.allows(to))
                continue;
            ++pairs;
            CandidateExecution original = from;
            const CandidateExecution copy = original;
            EXPECT_EQ(copy.rfStamp(), original.rfStamp());
            agrees("original", model, original, tally);

            original.rf = to.rf;
            original.co = to.co;
            original.events = to.events;
            original.finalRegs = to.finalRegs;
            original.finalizeRf();
            original.finalizeCo();
            EXPECT_NE(copy.rfStamp(), original.rfStamp());

            EXPECT_EQ(model.allows(original), model.allows(to));
            EXPECT_EQ(model.allows(copy), model.allows(from));
            agrees("re-finalized original", model, original, tally);
            agrees("copy", model, copy, tally);
        }
    }
    EXPECT_GT(pairs, 0u);
}

TEST(LkmmCheckMemo, RcuWithGracePeriodStillReported)
{
    // rcu-mp has a synchronize_rcu, so gp is non-empty and the RCU
    // fixpoint must run; its forbidden outcome fails exactly the RCU
    // axiom.
    const Program prog = litmusFile("rcu-mp.litmus");
    const LkmmModel model;
    const RunResult res = runTest(prog, model);
    EXPECT_EQ(res.verdict, Verdict::Forbid);
    ASSERT_TRUE(res.sampleViolation.has_value());
    EXPECT_EQ(res.sampleViolation->axiom, "rcu");

    Tally tally;
    for (const CandidateExecution &ex : candidates(prog)) {
        EXPECT_FALSE(ex.gp().empty());
        agrees("rcu-mp", model, ex, tally);
    }
    EXPECT_EQ(tally["rcu"], 1u);

    // Without the axiom the same candidate is allowed.
    LkmmModel::Config noRcu;
    noRcu.rcuAxiom = false;
    EXPECT_EQ(runTest(prog, LkmmModel(noRcu)).verdict, Verdict::Allow);
}

} // namespace
} // namespace lkmm

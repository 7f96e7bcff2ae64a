#include "exec/enumerate.hh"

#include <algorithm>
#include <cstdint>

#include "base/faultinject.hh"
#include "exec/enum_core.hh"
#include "exec/unroll.hh"
#include "relation/kernels.hh"

namespace lkmm
{

using enumcore::Layout;
using enumcore::Valuation;
using enumcore::ValuateScratch;

namespace
{

/** What every walk of one forEach() run shares. */
struct Walk
{
    const std::function<bool(const CandidateExecution &)> &fn;
    BudgetTracker &tracker;
    Enumerator::Stats &stats;
    bool stop = false;
};

/** The rf search space of one path combo. */
struct RfSpace
{
    const Layout &lay;
    /** Candidate rf sources per read (enumcore::rfCandidates). */
    std::vector<std::vector<EventId>> cands;
    /**
     * suffix[k] = number of complete rf assignments below a node
     * that has chosen sources for reads 0..k-1 (expanded subtree
     * size), so a cut subtree is accounted in whole complete
     * assignments and rfSpace = rfPruned + rfAssignments holds.
     */
    std::vector<std::size_t> suffix;
    /** The assignment under construction, indexed like readIds. */
    std::vector<EventId> src;

    explicit RfSpace(const Layout &l)
        : lay(l), cands(enumcore::rfCandidates(l)),
          suffix(l.readIds.size() + 1, 1), src(l.readIds.size())
    {
        for (std::size_t i = src.size(); i-- > 0;)
            suffix[i] = suffix[i + 1] * cands[i].size();
    }
};

/**
 * Depth-first product over the reads' rf sources, calling `leaf`
 * once per complete assignment (in space.src).  With `pruneWs`
 * non-null, a proper prefix with a forced violation is cut with its
 * whole subtree: it has no consistent completion.
 */
template <typename Leaf>
void
walkRf(Walk &walk, RfSpace &space, ValuateScratch *pruneWs,
       std::size_t readIdx, Leaf &leaf)
{
    if (readIdx == space.src.size()) {
        leaf();
        return;
    }
    for (EventId w : space.cands[readIdx]) {
        space.src[readIdx] = w;
        if (pruneWs && readIdx + 1 < space.src.size() &&
            !enumcore::partialFeasible(space.lay, space.src,
                                       readIdx + 1, *pruneWs)) {
            ++walk.stats.partialValuationRejects;
            walk.stats.rfPruned += space.suffix[readIdx + 1];
            walk.stats.rfSpace += space.suffix[readIdx + 1];
            continue;
        }
        walkRf(walk, space, pruneWs, readIdx + 1, leaf);
        if (walk.stop)
            return;
    }
}

/**
 * Account one complete rf assignment and solve its value
 * equations; true when it is consistent and the run goes on.
 */
bool
valuateRf(Walk &walk, const RfSpace &space, Valuation &val,
          ValuateScratch &ws)
{
    if (!walk.tracker.onRfAssignment()) {
        walk.stop = true;
        return false;
    }
    ++walk.stats.rfAssignments;
    ++walk.stats.rfSpace;
    enumcore::valuate(space.lay, space.src, val, ws);
    if (!val.consistent) {
        ++walk.stats.valuationRejects;
        return false;
    }
    ++walk.stats.rfConsistent;
    return true;
}

/** Non-init writes of the layout grouped by resolved location. */
void
groupWrites(const Layout &lay, const Valuation &val,
            std::vector<std::vector<EventId>> &byLoc)
{
    for (auto &v : byLoc)
        v.clear();
    for (EventId w : lay.writeIds) {
        if (!lay.events[w].isInit)
            byLoc[val.loc[w]].push_back(w);
    }
}

/**
 * The brute-force oracle over one path combo: no prefix cuts, a
 * fresh valuation per rf, and every co permutation built and
 * finalized from scratch on the heap.
 */
void
bruteCombo(Walk &walk, const Program &prog, const Layout &lay)
{
    const std::size_t n = lay.events.size();
    RfSpace space(lay);
    std::vector<std::vector<EventId>> by_loc(
        static_cast<std::size_t>(prog.numLocs()));

    auto leaf = [&] {
        Valuation val;
        ValuateScratch ws;
        if (!valuateRf(walk, space, val, ws))
            return;
        groupWrites(lay, val, by_loc);

        // Per-location permutations, init write first.
        auto chooseCo = [&](auto &self, std::size_t loc_i,
                            const Relation &co) -> void {
            if (loc_i == by_loc.size()) {
                if (!walk.tracker.onCandidate()) {
                    walk.stop = true;
                    return;
                }
                CandidateExecution ex;
                enumcore::buildRelations(lay, val, space.src, ex);
                ex.co = co;
                ex.finalize();
                ++walk.stats.candidates;
                if (!walk.fn(ex))
                    walk.stop = true;
                return;
            }
            auto &ws_loc = by_loc[loc_i];
            std::sort(ws_loc.begin(), ws_loc.end());
            do {
                Relation co2 = co;
                const EventId init_w = static_cast<EventId>(loc_i);
                for (EventId w : ws_loc)
                    co2.add(init_w, w);
                for (std::size_t a = 0; a < ws_loc.size(); ++a) {
                    for (std::size_t b = a + 1; b < ws_loc.size(); ++b)
                        co2.add(ws_loc[a], ws_loc[b]);
                }
                self(self, loc_i + 1, co2);
            } while (!walk.stop &&
                     std::next_permutation(ws_loc.begin(), ws_loc.end()));
        };
        chooseCo(chooseCo, 0, Relation(n));
    };
    walkRf(walk, space, nullptr, 0, leaf);
}

/**
 * Is seq[i] minimal among seq[from..]: no forced predecessor among
 * the writes still to be placed?
 */
bool
minimalAt(const Relation &forced, const std::vector<EventId> &seq,
          std::size_t from, std::size_t i)
{
    for (std::size_t j = from; j < seq.size(); ++j) {
        if (j != i && forced.contains(seq[j], seq[i]))
            return false;
    }
    return true;
}

/**
 * Reorder seq[from..] into the lexicographically least linear
 * extension of the forced order on those writes: at each position
 * the smallest-id write with no unplaced forced predecessor.  False
 * only if the forced order is cyclic there.
 */
bool
leastExtension(const Relation &forced, std::vector<EventId> &seq,
               std::size_t from)
{
    const std::size_t k = seq.size();
    for (std::size_t p = from; p < k; ++p) {
        std::size_t best = k;
        for (std::size_t i = p; i < k; ++i) {
            if ((best == k || seq[i] < seq[best]) &&
                minimalAt(forced, seq, p, i))
                best = i;
        }
        if (best == k)
            return false;
        std::swap(seq[p], seq[best]);
    }
    return true;
}

/**
 * Advance seq, a linear extension of the forced order on one
 * location's writes, to its lexicographic successor; false after the
 * last.  Extensions are produced one at a time, so a run's budget
 * hooks see every candidate however many orders a location has.
 * With an empty forced order this is std::next_permutation.
 */
bool
nextExtension(const Relation &forced, std::vector<EventId> &seq)
{
    const std::size_t k = seq.size();
    for (std::size_t p = k < 2 ? 0 : k - 1; p-- > 0;) {
        // The least write above seq[p] that may take its place.
        std::size_t best = k;
        for (std::size_t i = p + 1; i < k; ++i) {
            if (seq[i] > seq[p] && (best == k || seq[i] < seq[best]) &&
                minimalAt(forced, seq, p, i))
                best = i;
        }
        if (best != k) {
            std::swap(seq[p], seq[best]);
            // An acyclic order always completes.
            leastExtension(forced, seq, p + 1);
            return true;
        }
    }
    return false;
}

/**
 * Number of linear extensions of the forced order on `ws`,
 * saturating at SIZE_MAX; locations of more than 20 writes with
 * forced edges count as saturated.  Only a run that stops part-way
 * through an rf needs it (Stats::coPruned).
 */
std::size_t
countExtensions(const Relation &forced, const std::vector<EventId> &ws)
{
    const std::size_t k = ws.size();
    std::vector<std::uint32_t> preds(k, 0);
    bool free = true;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            if (!forced.contains(ws[j], ws[i]))
                continue;
            if (k > 20)
                return SIZE_MAX;
            preds[i] |= std::uint32_t{1} << j;
            free = false;
        }
    }
    if (free) {
        std::size_t n = 1;
        for (std::size_t f = 2; f <= k; ++f)
            n = n > SIZE_MAX / f ? SIZE_MAX : n * f;
        return n;
    }
    // ways[m] = orders of the write set m that respect forced.
    std::vector<std::size_t> ways(std::size_t{1} << k, 0);
    ways[0] = 1;
    for (std::size_t m = 0; m < ways.size(); ++m) {
        if (ways[m] == 0)
            continue;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t bit = std::size_t{1} << i;
            if ((m & bit) || (preds[i] & ~m) != 0)
                continue;
            std::size_t &w = ways[m | bit];
            w = w > SIZE_MAX - ways[m] ? SIZE_MAX : w + ways[m];
        }
    }
    return ways.back();
}

} // namespace

void
Enumerator::forEach(const std::function<bool(const CandidateExecution &)> &fn)
{
    faultinject::maybeFail(faultinject::Point::Enumerate,
                           prog_.name.c_str());

    completeness_ = Completeness::Complete;
    tripped_ = BoundKind::None;
    BudgetTracker tracker(budget_);
    Walk walk{fn, tracker, stats_};

    std::vector<std::vector<ThreadPath>> all_paths;
    all_paths.reserve(prog_.threads.size());
    for (const Thread &t : prog_.threads)
        all_paths.push_back(unrollThread(t));

    // Iterate the cartesian product of per-thread paths.
    std::vector<std::size_t> path_idx(prog_.threads.size(), 0);
    auto advance = [&]() {
        for (std::size_t t = 0; t < path_idx.size(); ++t) {
            if (++path_idx[t] < all_paths[t].size())
                return true;
            path_idx[t] = 0;
        }
        return false;
    };

    const auto num_locs = static_cast<std::size_t>(prog_.numLocs());
    // init_writes[l] = l is a layout invariant (init writes come
    // first, one per location, in location order).
    std::vector<EventId> init_writes(num_locs);
    for (std::size_t l = 0; l < num_locs; ++l)
        init_writes[l] = static_cast<EventId>(l);
    do {
        // Budget: poll the deadline/cancel token per path combo; the
        // per-rf and per-candidate caps are checked on their hooks.
        if (!tracker.checkNow())
            break;
        ++stats_.pathCombos;
        std::vector<const ThreadPath *> combo;
        combo.reserve(path_idx.size());
        for (std::size_t t = 0; t < path_idx.size(); ++t)
            combo.push_back(&all_paths[t][path_idx[t]]);

        const Layout lay = enumcore::layOut(prog_, combo);
        if (mode_ == EngineMode::Brute) {
            bruteCombo(walk, prog_, lay);
            continue;
        }
        const std::size_t n = lay.events.size();
        RfSpace space(lay);

        // The combo boundary is the static-stage lifetime:
        // everything the previous combo carved from the arena dies
        // here.  The statics are computed once and shared by every
        // candidate of the combo; the rf and co stages below
        // overwrite their outputs in place.
        arena_.reset();
        CandidateExecution base;
        base.attachArena(&arena_);
        enumcore::buildStaticRelations(lay, base);
        base.finalizeStatic();
        base.co = Relation(arena_, n);

        // Saturation state, cleared and refilled per rf; the
        // scratch is carved on the combo's first saturation.
        Relation forced(arena_, n);
        rel::SaturationScratch sat_scratch;

        // Reused across every rf of the combo (assign()/clear() keep
        // capacity, so the steady state allocates nothing).  by_loc
        // doubles as the current co order of each location.
        Valuation val;
        ValuateScratch ws;
        std::vector<std::vector<EventId>> by_loc(num_locs);

        // Build and hand out the candidate of the current
        // per-location orders (the caller has charged it): co is the
        // init write before every write of its location, then the
        // order.
        auto deliver = [&] {
            rel::clear(base.co);
            for (std::size_t l = 0; l < num_locs; ++l) {
                const std::vector<EventId> &seq = by_loc[l];
                for (std::size_t a = 0; a < seq.size(); ++a) {
                    base.co.add(static_cast<EventId>(l), seq[a]);
                    for (std::size_t b = a + 1; b < seq.size(); ++b)
                        base.co.add(seq[a], seq[b]);
                }
            }
            base.finalizeCo();
            ++stats_.candidates;
            if (!fn(base))
                walk.stop = true;
        };

        auto leaf = [&] {
            if (!valuateRf(walk, space, val, ws))
                return;
            // Only rf needs a reset: applyValuation overwrites every
            // non-init event and finalRegs wholesale, and the
            // finalize stages overwrite all their outputs.
            rel::clear(base.rf);
            enumcore::applyValuation(lay, val, space.src, base);
            base.finalizeRf();

            groupWrites(lay, val, by_loc);
            const bool open =
                std::any_of(by_loc.begin(), by_loc.end(),
                            [](const auto &w) { return w.size() >= 2; });
            if (!open) {
                // At most one write per location: co is forced.
                if (tracker.onCandidate()) {
                    deliver();
                } else {
                    walk.stop = true;
                    ++stats_.coPruned;
                }
                return;
            }

            // Saturate what the model's axioms force; a
            // contradiction retires the whole rf.
            if (support_.any()) {
                sat_scratch.prepare(arena_, n);
                rel::clear(forced);
                const rel::SaturationResult sat = rel::saturateForcedCo(
                    forced, base.poLoc(), base.rf, base.rmw,
                    base.intRel(), by_loc, init_writes, support_,
                    sat_scratch);
                if (sat.contradiction) {
                    ++stats_.rfSatRejects;
                    return;
                }
                stats_.coSatForced += sat.forcedEdges;
            }

            // Start every location at its least linear extension of
            // the forced order (all permutations without support).
            // The forced order is one chain iff consecutive writes
            // are forced; otherwise this rf needs the fallback.
            bool partial = false;
            for (std::vector<EventId> &seq : by_loc) {
                std::sort(seq.begin(), seq.end());
                if (!leastExtension(forced, seq, 0))
                    return;
                for (std::size_t a = 1;
                     support_.any() && !partial && a < seq.size(); ++a)
                    partial = !forced.contains(seq[a - 1], seq[a]);
            }
            if (partial)
                ++stats_.coFallbacks;

            // Deliver the cross product of the per-location orders,
            // location 0 varying slowest.
            std::size_t delivered = 0;
            for (;;) {
                if (!tracker.onCandidate()) {
                    walk.stop = true;
                    break;
                }
                deliver();
                ++delivered;
                if (walk.stop)
                    break;
                std::size_t l = num_locs;
                while (l > 0 && !nextExtension(forced, by_loc[l - 1])) {
                    std::sort(by_loc[l - 1].begin(), by_loc[l - 1].end());
                    leastExtension(forced, by_loc[l - 1], 0);
                    --l;
                }
                if (l == 0)
                    break;
            }
            if (walk.stop) {
                std::size_t total = 1;
                for (const std::vector<EventId> &seq : by_loc) {
                    const std::size_t c = countExtensions(forced, seq);
                    total = c != 0 && total > SIZE_MAX / c ? SIZE_MAX
                                                           : total * c;
                }
                stats_.coPruned += total - delivered;
            }
        };
        walkRf(walk, space,
               enumcore::canPartialReject(lay) ? &ws : nullptr, 0,
               leaf);
    } while (!walk.stop && advance());

    tripped_ = tracker.bound();
    if (tripped_ != BoundKind::None)
        completeness_ = Completeness::Truncated;
}

std::vector<CandidateExecution>
Enumerator::all()
{
    std::vector<CandidateExecution> out;
    forEach([&](const CandidateExecution &ex) {
        out.push_back(ex);
        return true;
    });
    return out;
}

} // namespace lkmm

/**
 * @file
 * The engine-neutral core of candidate enumeration.
 *
 * Both enumeration engines (EngineMode in enumerate.hh) — the
 * production rf-first engine and the brute-force oracle — walk the
 * same front half of the search: lay out a path combo as events,
 * restrict each read's rf sources, solve the value equations, and
 * build the abstract-execution relations.  This header is that shared half,
 * extracted so the engines cannot drift apart on it: a divergence
 * in rf-candidate pruning or valuation would silently break the
 * cross-engine identity the conformance and engine-identity suites
 * enforce.  The engines differ only in how they pick coherence
 * orders after this point.
 */

#ifndef LKMM_EXEC_ENUM_CORE_HH
#define LKMM_EXEC_ENUM_CORE_HH

#include <optional>
#include <vector>

#include "exec/execution.hh"
#include "exec/unroll.hh"
#include "litmus/program.hh"

namespace lkmm::enumcore
{

constexpr std::size_t NO_EVENT = static_cast<std::size_t>(-1);

/** A path combination laid out as events, before rf/co choices. */
struct Layout
{
    const Program *prog;
    /** Chosen path per thread. */
    std::vector<const ThreadPath *> paths;
    /** All events; init writes first, then threads in order. */
    std::vector<Event> events;
    /** eventOf[t][item] = event id, or SIZE_MAX for non-events. */
    std::vector<std::vector<std::size_t>> eventOf;
    /** Statically-known location per event (or -1). */
    std::vector<LocId> staticLoc;
    /** Event ids of all reads (enumeration order). */
    std::vector<EventId> readIds;
    /** Event ids of all writes, including init. */
    std::vector<EventId> writeIds;
};

Layout layOut(const Program &prog,
              const std::vector<const ThreadPath *> &paths);

/** Result of the valuation fixpoint for one rf assignment. */
struct Valuation
{
    bool consistent = false;
    /** Resolved location per event (-1 for fences). */
    std::vector<LocId> loc;
    /** Resolved value per memory event. */
    std::vector<Value> value;
    /** Final register values per thread. */
    std::vector<std::vector<Value>> finalRegs;
};

/**
 * Scratch vectors of the valuation walks.  The production engine
 * reuses one instance across every rf assignment (assign() keeps
 * the capacity, so the steady state allocates nothing); the brute
 * oracle constructs a fresh one per call.
 */
struct ValuateScratch
{
    std::vector<std::optional<Value>> evValue;
    std::vector<EventId> rfOf;
    std::vector<std::optional<Value>> env;
    /** partialFeasible's location column (valuate uses val.loc). */
    std::vector<LocId> loc;
};

/**
 * Solve the value equations for a given rf choice.
 *
 * Iterates per-thread walks until no event value or location
 * becomes newly known; any write value still unknown afterwards
 * sits on a dependency cycle through rf, and is resolved to 0 (the
 * "out-of-thin-air zero" rule; see DESIGN.md).  A final
 * verification walk then checks branch outcomes, location agreement
 * between each read and its rf source, and expression consistency.
 */
void valuate(const Layout &lay, const std::vector<EventId> &rfSrc,
             Valuation &val, ValuateScratch &ws);

/**
 * Is a partial rf assignment (sources chosen for the first
 * `numAssigned` reads, in readIds order) still completable?
 *
 * Runs the same monotone fixpoint as valuate() with the unassigned
 * reads left unknown; see enum_core.cc for the soundness argument.
 * Returns true when no forced violation exists (the prefix may
 * still fail the full valuation once completed).
 */
bool partialFeasible(const Layout &lay,
                     const std::vector<EventId> &rfSrc,
                     std::size_t numAssigned, ValuateScratch &ws);

/**
 * Fill in the parts of an execution that depend only on the layout:
 * the events and the abstract-execution relations.  Valid for every
 * rf/co choice of the path combo.
 */
void buildStaticRelations(const Layout &lay, CandidateExecution &ex);

/** Stamp a solved rf assignment onto a statically-built execution. */
void applyValuation(const Layout &lay, const Valuation &val,
                    const std::vector<EventId> &rfSrc,
                    CandidateExecution &ex);

/** Build the abstract-execution relations (static + valuation). */
void buildRelations(const Layout &lay, const Valuation &val,
                    const std::vector<EventId> &rfSrc,
                    CandidateExecution &ex);

/**
 * Candidate rf sources per read, pruned by static locations and by
 * intra-thread order: reading a po-later write of one's own thread
 * violates sc-per-variable in every model this repository ships, so
 * such candidates are never useful (herd prunes identically).  Both
 * engines MUST use this one restriction so their rf spaces agree.
 */
std::vector<std::vector<EventId>> rfCandidates(const Layout &lay);

/**
 * Does the partial-prefix check have anything to cut on?  It can
 * only ever fire on a forced Check violation, a forced-bad address,
 * or a forced location mismatch; with all-static locations and no
 * Check items none of those exist and the check is pure overhead.
 */
bool canPartialReject(const Layout &lay);

} // namespace lkmm::enumcore

#endif // LKMM_EXEC_ENUM_CORE_HH

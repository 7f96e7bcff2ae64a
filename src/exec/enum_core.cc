#include "exec/enum_core.hh"

namespace lkmm::enumcore
{

Layout
layOut(const Program &prog, const std::vector<const ThreadPath *> &paths)
{
    Layout lay;
    lay.prog = &prog;
    lay.paths = paths;

    // Initial writes: one per location, on virtual thread -1.
    for (LocId l = 0; l < prog.numLocs(); ++l) {
        Event e;
        e.id = lay.events.size();
        e.tid = -1;
        e.kind = EvKind::Write;
        e.ann = Ann::Once;
        e.loc = l;
        e.value = prog.initValue(l);
        e.isInit = true;
        e.label = "i" + prog.locNames[l];
        lay.staticLoc.push_back(l);
        lay.writeIds.push_back(e.id);
        lay.events.push_back(std::move(e));
    }

    char next_label = 'a';
    lay.eventOf.resize(paths.size());
    for (std::size_t t = 0; t < paths.size(); ++t) {
        const ThreadPath &path = *paths[t];
        lay.eventOf[t].assign(path.items.size(), NO_EVENT);
        int po_idx = 0;
        for (std::size_t i = 0; i < path.items.size(); ++i) {
            const PathItem &item = path.items[i];
            if (item.kind != PathItem::Kind::Event)
                continue;
            Event e;
            e.id = lay.events.size();
            e.tid = static_cast<int>(t);
            e.poIdx = po_idx++;
            e.kind = item.evKind;
            e.ann = item.ann;
            e.dest = item.dest;
            e.label = std::string(1, next_label);
            if (next_label < 'z')
                ++next_label;
            lay.eventOf[t][i] = e.id;
            lay.staticLoc.push_back(item.staticLoc.value_or(-1));
            if (item.evKind == EvKind::Read)
                lay.readIds.push_back(e.id);
            else if (item.evKind == EvKind::Write)
                lay.writeIds.push_back(e.id);
            lay.events.push_back(std::move(e));
        }
    }
    return lay;
}

void
valuate(const Layout &lay, const std::vector<EventId> &rfSrc,
        Valuation &val, ValuateScratch &ws)
{
    const std::size_t n = lay.events.size();
    val.consistent = false;
    val.loc.assign(n, -1);
    auto &ev_value = ws.evValue;
    ev_value.assign(n, std::nullopt);

    // rfOf[readEvent] = source write event.
    auto &rf_of = ws.rfOf;
    rf_of.assign(n, NO_EVENT);
    for (std::size_t i = 0; i < lay.readIds.size(); ++i)
        rf_of[lay.readIds[i]] = rfSrc[i];

    for (const Event &e : lay.events) {
        if (e.isInit) {
            val.loc[e.id] = e.loc;
            ev_value[e.id] = e.value;
        }
    }

    const int max_locs = lay.prog->numLocs();

    // Fixpoint passes.  Each pass walks each thread in program order
    // with a fresh register environment, pulling read values from rf
    // sources resolved in earlier passes.
    bool changed = true;
    bool bad = false;
    while (changed && !bad) {
        changed = false;
        for (std::size_t t = 0; t < lay.paths.size() && !bad; ++t) {
            const ThreadPath &path = *lay.paths[t];
            auto &env = ws.env;
            env.assign(path.numRegs, std::nullopt);
            for (std::size_t i = 0; i < path.items.size(); ++i) {
                const PathItem &item = path.items[i];
                switch (item.kind) {
                  case PathItem::Kind::Let:
                    env[item.dest] = item.value.eval(env);
                    break;
                  case PathItem::Kind::Check:
                    break;
                  case PathItem::Kind::Event: {
                    const EventId e = lay.eventOf[t][i];
                    const Event &ev = lay.events[e];
                    if (ev.kind == EvKind::Fence)
                        break;
                    auto addr_v = item.addr.eval(env);
                    if (addr_v) {
                        if (!isLocHandle(*addr_v)) {
                            bad = true;
                            break;
                        }
                        LocId l = valueToLoc(*addr_v);
                        if (l < 0 || l >= max_locs) {
                            bad = true;
                            break;
                        }
                        if (val.loc[e] == -1) {
                            val.loc[e] = l;
                            changed = true;
                        }
                    }
                    if (ev.kind == EvKind::Read) {
                        auto v = ev_value[rf_of[e]];
                        if (v && !ev_value[e]) {
                            ev_value[e] = v;
                            changed = true;
                        }
                        env[ev.dest] = ev_value[e];
                    } else {
                        auto v = item.value.eval(env);
                        if (v && !ev_value[e]) {
                            ev_value[e] = v;
                            changed = true;
                        }
                    }
                    break;
                  }
                }
            }
        }
    }
    if (bad)
        return;

    // Out-of-thin-air rule: writes on an rf/data cycle get value 0.
    for (EventId w : lay.writeIds) {
        if (!ev_value[w])
            ev_value[w] = 0;
    }

    // Propagate the now-known values to reads (two passes suffice:
    // one to push write values over rf, one for chained reads).
    for (int pass = 0; pass < 2; ++pass) {
        for (EventId r_id : lay.readIds) {
            if (!ev_value[r_id] && ev_value[rf_of[r_id]])
                ev_value[r_id] = ev_value[rf_of[r_id]];
        }
    }

    // Verification walk: all values must now be resolvable, branch
    // checks must match, and locations must agree with rf sources.
    val.finalRegs.resize(lay.paths.size());
    for (std::size_t t = 0; t < lay.paths.size(); ++t) {
        const ThreadPath &path = *lay.paths[t];
        auto &env = ws.env;
        env.assign(path.numRegs, std::nullopt);
        for (std::size_t i = 0; i < path.items.size(); ++i) {
            const PathItem &item = path.items[i];
            switch (item.kind) {
              case PathItem::Kind::Let: {
                auto v = item.value.eval(env);
                if (!v)
                    return;
                env[item.dest] = v;
                break;
              }
              case PathItem::Kind::Check: {
                auto v = item.value.eval(env);
                if (!v)
                    return;
                if ((*v != 0) != item.expectTrue)
                    return;
                break;
              }
              case PathItem::Kind::Event: {
                const EventId e = lay.eventOf[t][i];
                const Event &ev = lay.events[e];
                if (ev.kind == EvKind::Fence)
                    break;
                auto addr_v = item.addr.eval(env);
                if (!addr_v || !isLocHandle(*addr_v))
                    return;
                const LocId l = valueToLoc(*addr_v);
                if (l < 0 || l >= max_locs || val.loc[e] != l)
                    return;
                if (ev.kind == EvKind::Read) {
                    // The read's location must match its rf source's.
                    if (val.loc[rf_of[e]] != l)
                        return;
                    if (!ev_value[e] ||
                        *ev_value[e] != *ev_value[rf_of[e]]) {
                        return;
                    }
                    env[ev.dest] = ev_value[e];
                } else {
                    auto v = item.value.eval(env);
                    if (!v || !ev_value[e] || *v != *ev_value[e])
                        return;
                }
                break;
              }
            }
        }
        val.finalRegs[t].assign(path.numRegs, 0);
        for (int r = 0; r < path.numRegs; ++r) {
            if (env[r])
                val.finalRegs[t][r] = *env[r];
        }
    }

    val.value.assign(n, 0);
    for (std::size_t e = 0; e < n; ++e) {
        if (ev_value[e])
            val.value[e] = *ev_value[e];
    }
    val.consistent = true;
    return;
}

/*
 * partialFeasible soundness: every value/location the monotone
 * fixpoint derives is forced in *every* completion of the prefix
 * (Expr::eval is strict — unknown inputs yield unknown, never a
 * guess — and event values are single-assignment), so any violation
 * found here is a violation of all completions and the whole
 * subtree can be skipped.  Crucially the out-of-thin-air-zero rule
 * is NOT applied: it resolves values that are merely
 * unknown-so-far, which a completion may pin differently.  Only
 * three forced violations are detected:
 *
 *  - a Check item (branch outcome / spinlock read requirement)
 *    whose value is known and wrong;
 *  - an address that is known and is not a valid location;
 *  - a read and its chosen rf source whose resolved locations are
 *    both known and differ.
 */
bool
partialFeasible(const Layout &lay, const std::vector<EventId> &rfSrc,
                std::size_t numAssigned, ValuateScratch &ws)
{
    const std::size_t n = lay.events.size();
    auto &loc = ws.loc;
    loc.assign(n, -1);
    auto &ev_value = ws.evValue;
    ev_value.assign(n, std::nullopt);

    auto &rf_of = ws.rfOf;
    rf_of.assign(n, NO_EVENT);
    for (std::size_t i = 0; i < numAssigned; ++i)
        rf_of[lay.readIds[i]] = rfSrc[i];

    for (const Event &e : lay.events) {
        if (e.isInit) {
            loc[e.id] = e.loc;
            ev_value[e.id] = e.value;
        }
    }

    const int max_locs = lay.prog->numLocs();

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t t = 0; t < lay.paths.size(); ++t) {
            const ThreadPath &path = *lay.paths[t];
            auto &env = ws.env;
            env.assign(path.numRegs, std::nullopt);
            for (std::size_t i = 0; i < path.items.size(); ++i) {
                const PathItem &item = path.items[i];
                switch (item.kind) {
                  case PathItem::Kind::Let:
                    env[item.dest] = item.value.eval(env);
                    break;
                  case PathItem::Kind::Check: {
                    auto v = item.value.eval(env);
                    if (v && (*v != 0) != item.expectTrue)
                        return false;
                    break;
                  }
                  case PathItem::Kind::Event: {
                    const EventId e = lay.eventOf[t][i];
                    const Event &ev = lay.events[e];
                    if (ev.kind == EvKind::Fence)
                        break;
                    auto addr_v = item.addr.eval(env);
                    if (addr_v) {
                        if (!isLocHandle(*addr_v))
                            return false;
                        LocId l = valueToLoc(*addr_v);
                        if (l < 0 || l >= max_locs)
                            return false;
                        if (loc[e] == -1) {
                            loc[e] = l;
                            changed = true;
                        }
                    }
                    if (ev.kind == EvKind::Read) {
                        if (rf_of[e] != NO_EVENT) {
                            if (loc[e] != -1 && loc[rf_of[e]] != -1 &&
                                loc[e] != loc[rf_of[e]]) {
                                return false;
                            }
                            auto v = ev_value[rf_of[e]];
                            if (v && !ev_value[e]) {
                                ev_value[e] = v;
                                changed = true;
                            }
                        }
                        env[ev.dest] = ev_value[e];
                    } else {
                        auto v = item.value.eval(env);
                        if (v && !ev_value[e]) {
                            ev_value[e] = v;
                            changed = true;
                        }
                    }
                    break;
                  }
                }
            }
        }
    }
    return true;
}

void
buildStaticRelations(const Layout &lay, CandidateExecution &ex)
{
    const std::size_t n = lay.events.size();

    ex.program = lay.prog;
    ex.events = lay.events;

    // Abstract-execution storage comes from the execution's arena
    // when one is attached (the production engine's path).
    auto mk = [&ex, n] {
        return ex.arena() ? Relation(*ex.arena(), n) : Relation(n);
    };
    ex.po = mk();
    ex.addr = mk();
    ex.data = mk();
    ex.ctrl = mk();
    ex.rmw = mk();
    ex.rf = mk();

    for (std::size_t t = 0; t < lay.paths.size(); ++t) {
        const ThreadPath &path = *lay.paths[t];
        // Transitive program order.
        std::vector<EventId> thread_events;
        for (std::size_t i = 0; i < path.items.size(); ++i) {
            if (lay.eventOf[t][i] != NO_EVENT)
                thread_events.push_back(lay.eventOf[t][i]);
        }
        for (std::size_t i = 0; i < thread_events.size(); ++i) {
            for (std::size_t j = i + 1; j < thread_events.size(); ++j)
                ex.po.add(thread_events[i], thread_events[j]);
        }
        // Dependencies.
        for (std::size_t i = 0; i < path.items.size(); ++i) {
            if (lay.eventOf[t][i] == NO_EVENT)
                continue;
            const PathItem &item = path.items[i];
            const EventId e = lay.eventOf[t][i];
            for (int src : item.addrDeps)
                ex.addr.add(lay.eventOf[t][src], e);
            for (int src : item.dataDeps)
                ex.data.add(lay.eventOf[t][src], e);
            for (int src : item.ctrlDeps)
                ex.ctrl.add(lay.eventOf[t][src], e);
            if (item.rmwRead >= 0)
                ex.rmw.add(lay.eventOf[t][item.rmwRead], e);
        }
    }
}

void
applyValuation(const Layout &lay, const Valuation &val,
               const std::vector<EventId> &rfSrc, CandidateExecution &ex)
{
    for (std::size_t e = 0; e < lay.events.size(); ++e) {
        if (!ex.events[e].isInit) {
            ex.events[e].loc = val.loc[e];
            ex.events[e].value = val.value[e];
        }
    }
    for (std::size_t i = 0; i < lay.readIds.size(); ++i)
        ex.rf.add(rfSrc[i], lay.readIds[i]);
    ex.finalRegs = val.finalRegs;
}

void
buildRelations(const Layout &lay, const Valuation &val,
               const std::vector<EventId> &rfSrc, CandidateExecution &ex)
{
    buildStaticRelations(lay, ex);
    applyValuation(lay, val, rfSrc, ex);
}

std::vector<std::vector<EventId>>
rfCandidates(const Layout &lay)
{
    std::vector<std::vector<EventId>> rf_cands(lay.readIds.size());
    for (std::size_t i = 0; i < lay.readIds.size(); ++i) {
        const Event &read = lay.events[lay.readIds[i]];
        const LocId rl = lay.staticLoc[read.id];
        for (EventId w : lay.writeIds) {
            const LocId wl = lay.staticLoc[w];
            if (rl >= 0 && wl >= 0 && rl != wl)
                continue;
            const Event &write = lay.events[w];
            if (write.tid == read.tid && write.poIdx > read.poIdx)
                continue;
            rf_cands[i].push_back(w);
        }
    }
    return rf_cands;
}

bool
canPartialReject(const Layout &lay)
{
    for (const ThreadPath *path : lay.paths) {
        for (const PathItem &item : path->items) {
            if (item.kind == PathItem::Kind::Check)
                return true;
        }
    }
    for (const Event &e : lay.events) {
        if (!e.isInit && e.kind != EvKind::Fence &&
            lay.staticLoc[e.id] < 0) {
            return true;
        }
    }
    return false;
}

} // namespace lkmm::enumcore

/**
 * @file
 * Tests for the candidate-execution enumerator (src/exec): event
 * layout, rf/co enumeration, dependency construction, valuation,
 * and control-flow consistency.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "exec/enumerate.hh"
#include "exec/unroll.hh"
#include "litmus/builder.hh"
#include "lkmm/catalog.hh"

namespace lkmm
{
namespace
{

// A temporary Program would dangle the enumerator's prog_ and every
// candidate's program pointer, so the rvalue constructor is deleted.
static_assert(!std::is_constructible_v<Enumerator, Program &&>);
static_assert(std::is_constructible_v<Enumerator, const Program &>);

/** Count candidates and collect final-state strings. */
std::set<std::string>
finalStates(const Program &prog)
{
    std::set<std::string> states;
    Enumerator en(prog);
    en.forEach([&](const CandidateExecution &ex) {
        states.insert(ex.finalStateString());
        return true;
    });
    return states;
}

TEST(Unroll, StraightLineSingle)
{
    LitmusBuilder b("t");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.writeOnce(x, 1);
    t0.mb();
    t0.readOnce(x);
    Program p = b.build();

    auto paths = unrollThread(p.threads[0]);
    ASSERT_EQ(paths.size(), 1u);
    ASSERT_EQ(paths[0].items.size(), 3u);
    EXPECT_EQ(paths[0].items[0].evKind, EvKind::Write);
    EXPECT_EQ(paths[0].items[1].evKind, EvKind::Fence);
    EXPECT_EQ(paths[0].items[1].ann, Ann::Mb);
    EXPECT_EQ(paths[0].items[2].evKind, EvKind::Read);
}

TEST(Unroll, IfForksTwoPaths)
{
    LitmusBuilder b("t");
    LocId x = b.loc("x"), y = b.loc("y");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(x);
    t0.iff(Expr::binary(Expr::Op::Eq, r, Expr::constant(1)),
           [&](ThreadBuilder &t) { t.writeOnce(y, 1); },
           [&](ThreadBuilder &t) { t.writeOnce(y, 2); });
    Program p = b.build();

    auto paths = unrollThread(p.threads[0]);
    EXPECT_EQ(paths.size(), 2u);
}

TEST(Unroll, CtrlDependencyReachesPastJoin)
{
    // A branch on a read gives ctrl deps to *all* later events,
    // including those after the if/else join (Section 3.2.2).
    LitmusBuilder b("t");
    LocId x = b.loc("x"), y = b.loc("y");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(x);
    t0.iff(Expr::binary(Expr::Op::Eq, r, Expr::constant(1)),
           [&](ThreadBuilder &) {});
    t0.writeOnce(y, 1); // after the join
    Program p = b.build();

    auto paths = unrollThread(p.threads[0]);
    ASSERT_EQ(paths.size(), 2u);
    for (const auto &path : paths) {
        const PathItem &write = path.items.back();
        ASSERT_EQ(write.evKind, EvKind::Write);
        ASSERT_EQ(write.ctrlDeps.size(), 1u);
        EXPECT_EQ(write.ctrlDeps[0], 0);
    }
}

TEST(Unroll, AddrAndDataDeps)
{
    LitmusBuilder b("t");
    LocId arr = b.array("a", 2);
    LocId y = b.loc("y");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(y);
    // addr dep: a[r ^ r]; data dep: write r to y.
    t0.readOnce(Expr::index(arr, Expr::binary(Expr::Op::Xor, r, r)));
    t0.writeOnce(y, Expr(r));
    Program p = b.build();

    auto paths = unrollThread(p.threads[0]);
    ASSERT_EQ(paths.size(), 1u);
    const auto &items = paths[0].items;
    ASSERT_EQ(items.size(), 3u);
    ASSERT_EQ(items[1].addrDeps.size(), 1u);
    EXPECT_EQ(items[1].addrDeps[0], 0);
    ASSERT_EQ(items[2].dataDeps.size(), 1u);
    EXPECT_EQ(items[2].dataDeps[0], 0);
}

TEST(Unroll, RmwExpandsToReadWritePair)
{
    LitmusBuilder b("t");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.xchg(x, 5);
    Program p = b.build();

    auto paths = unrollThread(p.threads[0]);
    ASSERT_EQ(paths.size(), 1u);
    const auto &items = paths[0].items;
    // xchg(): F[mb], R, W, F[mb].
    ASSERT_EQ(items.size(), 4u);
    EXPECT_EQ(items[0].ann, Ann::Mb);
    EXPECT_EQ(items[1].evKind, EvKind::Read);
    EXPECT_EQ(items[2].evKind, EvKind::Write);
    EXPECT_EQ(items[2].rmwRead, 1);
    EXPECT_EQ(items[3].ann, Ann::Mb);
}

TEST(Enumerate, SingleThreadReadsOwnWrite)
{
    LitmusBuilder b("own");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.writeOnce(x, 7);
    RegRef r = t0.readOnce(x);
    b.exists(eq(r, 7));
    Program p = b.build();

    // Two rf choices (init or the write); both are enumerated here —
    // the po-loc/com filter is the model's job, not the
    // enumerator's.
    Enumerator en(p);
    auto execs = en.all();
    EXPECT_EQ(execs.size(), 2u);
}

TEST(Enumerate, FinalMemoryFollowsCoherence)
{
    LitmusBuilder b("co");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.writeOnce(x, 1);
    ThreadBuilder &t1 = b.thread();
    t1.writeOnce(x, 2);
    b.exists(Cond::trueCond());
    Program p = b.build();

    std::set<Value> finals;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        finals.insert(ex.finalMem[0]);
        return true;
    });
    // Two co orders: x ends at 1 or 2.
    EXPECT_EQ(finals, (std::set<Value>{1, 2}));
}

TEST(Enumerate, MpHasExpectedCandidateCount)
{
    // MP: r1 has 2 rf choices (init-y or Wy), r2 has 2; co fixed per
    // location (one write each): 4 candidates.
    Program p = mp();
    Enumerator en(p);
    EXPECT_EQ(en.all().size(), 4u);
}

TEST(Enumerate, SbOutcomesIncludeWeakOne)
{
    Program p = sb();
    std::set<std::string> states = finalStates(p);
    // All four read-value combinations appear pre-model.
    EXPECT_EQ(states.size(), 4u);
}

TEST(Enumerate, ValuesFlowThroughRf)
{
    LitmusBuilder b("flow");
    LocId x = b.loc("x"), y = b.loc("y");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(x);
    t0.writeOnce(y, Expr::binary(Expr::Op::Add, r, Expr::constant(10)));
    ThreadBuilder &t1 = b.thread();
    t1.writeOnce(x, 32);
    b.exists(Cond::trueCond());
    Program p = b.build();

    bool saw42 = false;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        for (const Event &e : ex.events) {
            if (e.isWrite() && !e.isInit && e.loc == 1 && e.value == 42)
                saw42 = true;
        }
        return true;
    });
    EXPECT_TRUE(saw42);
}

TEST(Enumerate, BranchOutcomesMustMatchReadValues)
{
    // T0 writes y=1 only if it read x==1; T1 never writes x.
    // So no candidate can have y=1.
    LitmusBuilder b("branch");
    LocId x = b.loc("x"), y = b.loc("y");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(x);
    t0.iff(Expr::binary(Expr::Op::Eq, r, Expr::constant(1)),
           [&](ThreadBuilder &t) { t.writeOnce(y, 1); });
    b.exists(Cond::trueCond());
    Program p = b.build();

    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        EXPECT_EQ(ex.finalMem[1], 0);
        return true;
    });
    EXPECT_GT(en.stats().candidates, 0u);
}

TEST(Enumerate, OutOfThinAirCycleResolvesToZero)
{
    // LB+datas: the value cycle r1 = x = r2 = y = r1 resolves to 0
    // (the "OOTA-zero" rule); no candidate carries a made-up value.
    Program p = lbDatas();
    bool saw_nonzero = false;
    std::size_t candidates = 0;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        ++candidates;
        for (const Event &e : ex.events) {
            if (e.isMem() && e.value != 0)
                saw_nonzero = true;
        }
        return true;
    });
    EXPECT_GT(candidates, 0u);
    EXPECT_FALSE(saw_nonzero);
}

TEST(Enumerate, PointerDereferenceFollowsRf)
{
    // T0 publishes p = &u after writing u = 9; T1 dereferences p.
    LitmusBuilder b("deref");
    LocId u = b.loc("u");
    LocId z = b.loc("z");
    LocId ptr = b.loc("p");
    b.initPtr(ptr, z);
    ThreadBuilder &t0 = b.thread();
    t0.writeOnce(u, 9);
    t0.storeRelease(ptr, Expr::locRef(u));
    ThreadBuilder &t1 = b.thread();
    RegRef r1 = t1.readOnce(ptr);
    RegRef r2 = t1.readOnce(Expr(r1));
    b.exists(Cond::andOf(Cond::regEq(r1.tid, r1.reg, locToValue(u)),
                         eq(r2, 9)));
    Program p = b.build();

    // Some candidate must have r1=&u and r2=9.
    bool witness = false;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        if (ex.satisfiesCondition())
            witness = true;
        return true;
    });
    EXPECT_TRUE(witness);
}

TEST(Enumerate, AddressDependencyEdgeBuilt)
{
    Program p = mpWmbAddrAcq();
    bool found_addr_dep = false;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        if (!ex.addr.empty())
            found_addr_dep = true;
        return true;
    });
    EXPECT_TRUE(found_addr_dep);
}

TEST(Enumerate, RmwAtomicityPairsBuilt)
{
    LitmusBuilder b("rmw");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.xchgRelaxed(x, Value{1});
    b.exists(eq(r, 0));
    Program p = b.build();

    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        EXPECT_EQ(ex.rmw.count(), 1u);
        auto [rd, wr] = ex.rmw.pairs()[0];
        EXPECT_TRUE(ex.events[rd].isRead());
        EXPECT_TRUE(ex.events[wr].isWrite());
        EXPECT_EQ(ex.events[rd].loc, ex.events[wr].loc);
        return true;
    });
}

TEST(Enumerate, SpinlockRequiresUnlockedRead)
{
    // Two threads lock/unlock the same spinlock; candidates where a
    // lock "reads locked forever" are discarded as non-terminating.
    LitmusBuilder b("lock");
    LocId l = b.loc("l");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.spinLock(l);
    t0.writeOnce(x, 1);
    t0.spinUnlock(l);
    ThreadBuilder &t1 = b.thread();
    t1.spinLock(l);
    t1.writeOnce(x, 2);
    t1.spinUnlock(l);
    b.exists(Cond::trueCond());
    Program p = b.build();

    Enumerator en(p);
    std::size_t candidates = 0;
    en.forEach([&](const CandidateExecution &ex) {
        ++candidates;
        // Each lock read must have read 0.
        for (const Event &e : ex.events) {
            if (e.isRead() && e.loc == 0) {
                EXPECT_EQ(e.value, 0);
            }
        }
        return true;
    });
    EXPECT_GT(candidates, 0u);
}

TEST(Enumerate, CmpxchgSuccessAndFailurePaths)
{
    LitmusBuilder b("cmpxchg");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    RegRef old = t0.cmpxchg(x, 0, 1);
    b.exists(eq(old, 0));
    Program p = b.build();

    std::size_t with_write = 0, without_write = 0;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        std::size_t writes = 0;
        for (const Event &e : ex.events) {
            if (e.isWrite() && !e.isInit)
                ++writes;
        }
        (writes ? with_write : without_write) += 1;
        return true;
    });
    // x starts 0, so the success path is consistent; the failure
    // path needs the read to see nonzero, impossible here.
    EXPECT_GT(with_write, 0u);
    EXPECT_EQ(without_write, 0u);
}

TEST(Enumerate, InitialValuesRespected)
{
    LitmusBuilder b("init");
    LocId x = b.loc("x");
    b.init(x, 41);
    ThreadBuilder &t0 = b.thread();
    RegRef r = t0.readOnce(x);
    b.exists(eq(r, 41));
    Program p = b.build();

    Enumerator en(p);
    auto execs = en.all();
    ASSERT_EQ(execs.size(), 1u);
    EXPECT_TRUE(execs[0].satisfiesCondition());
}

TEST(Enumerate, PoIsTransitivePerThread)
{
    Program p = mpWmbRmb();
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        // T0 has 3 events: transitively ordered = 3 pairs; same for
        // T1.
        std::size_t po_pairs = ex.po.count();
        EXPECT_EQ(po_pairs, 6u);
        // po never relates events of different threads or inits.
        for (auto [a, bb] : ex.po.pairs())
            EXPECT_EQ(ex.events[a].tid, ex.events[bb].tid);
        return true;
    });
}

TEST(Enumerate, CoTotalPerLocationInitFirst)
{
    LitmusBuilder b("co3");
    LocId x = b.loc("x");
    ThreadBuilder &t0 = b.thread();
    t0.writeOnce(x, 1);
    ThreadBuilder &t1 = b.thread();
    t1.writeOnce(x, 2);
    ThreadBuilder &t2 = b.thread();
    t2.writeOnce(x, 3);
    b.exists(Cond::trueCond());
    Program p = b.build();

    std::size_t count = 0;
    Enumerator en(p);
    en.forEach([&](const CandidateExecution &ex) {
        ++count;
        // Init is co-before every other write to x.
        for (const Event &e : ex.events) {
            if (e.isWrite() && !e.isInit) {
                EXPECT_TRUE(ex.co.contains(0, e.id));
            }
        }
        // co is a strict total order over the 4 writes: 6 pairs.
        EXPECT_EQ(ex.co.count(), 6u);
        return true;
    });
    // 3! = 6 coherence orders.
    EXPECT_EQ(count, 6u);
}

} // namespace
} // namespace lkmm

/**
 * @file
 * Property tests for the relational algebra (src/relation): the
 * axioms every cat-model evaluation silently relies on — De Morgan
 * duality, closure fixpoint identities, inverse/composition laws —
 * checked over randomly generated relations instead of hand-picked
 * examples.  The verification engine evaluates millions of algebra
 * expressions per sweep; these laws are what make those expressions
 * mean what the .cat files say.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "relation/relation.hh"

namespace lkmm
{
namespace
{

/** A random relation over n events with roughly `fill`/64 density. */
Relation
randomRelation(Rng &rng, std::size_t n, std::uint64_t fill)
{
    Relation r(n);
    for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
            if (rng.chance(fill, 64))
                r.add(a, b);
        }
    }
    return r;
}

/** Run `check` on many (a, b, c) triples of varying size/density. */
template <typename Check>
void
forRandomTriples(Check check)
{
    Rng rng(20260805);
    for (std::size_t n : {1, 2, 5, 9, 17}) {
        for (int round = 0; round < 8; ++round) {
            const std::uint64_t fill = 4 + 8 * (round % 4);
            Relation a = randomRelation(rng, n, fill);
            Relation b = randomRelation(rng, n, fill);
            Relation c = randomRelation(rng, n, fill);
            check(a, b, c);
        }
    }
}

TEST(RelationProperty, DeMorganDuality)
{
    forRandomTriples([](const Relation &a, const Relation &b,
                        const Relation &) {
        EXPECT_EQ(~(a | b), ~a & ~b);
        EXPECT_EQ(~(a & b), ~a | ~b);
        EXPECT_EQ(~~a, a);
    });
}

TEST(RelationProperty, BooleanLattice)
{
    forRandomTriples([](const Relation &a, const Relation &b,
                        const Relation &c) {
        // Commutativity, associativity, distributivity, absorption.
        EXPECT_EQ(a | b, b | a);
        EXPECT_EQ(a & b, b & a);
        EXPECT_EQ((a | b) | c, a | (b | c));
        EXPECT_EQ((a & b) & c, a & (b & c));
        EXPECT_EQ(a & (b | c), (a & b) | (a & c));
        EXPECT_EQ(a | (b & c), (a | b) & (a | c));
        EXPECT_EQ(a & (a | b), a);
        EXPECT_EQ(a | (a & b), a);
        // Difference is intersection with the complement.
        EXPECT_EQ(a - b, a & ~b);
        EXPECT_TRUE(((a - b) & b).empty());
    });
}

TEST(RelationProperty, ClosureFixpoints)
{
    forRandomTriples([](const Relation &a, const Relation &,
                        const Relation &) {
        const std::size_t n = a.size();
        const Relation id = Relation::identity(n);
        const Relation plus = a.plus();
        const Relation star = a.star();

        // r* = r+ | id and r? = r | id.
        EXPECT_EQ(star, plus | id);
        EXPECT_EQ(a.opt(), a | id);

        // r+ = r ; r* = r* ; r.
        EXPECT_EQ(plus, a.seq(star));
        EXPECT_EQ(plus, star.seq(a));

        // Closures are idempotent and contain the base relation.
        EXPECT_EQ(plus.plus(), plus);
        EXPECT_EQ(star.star(), star);
        EXPECT_TRUE(a.subsetOf(plus));
        EXPECT_TRUE(plus.subsetOf(star));

        // r+ is transitively closed; r* is also reflexive.
        EXPECT_TRUE(plus.seq(plus).subsetOf(plus));
        EXPECT_TRUE(id.subsetOf(star));

        // Acyclicity is exactly irreflexivity of the closure: the
        // definition cat's `acyclic` constraint expands to.
        EXPECT_EQ(a.acyclic(), plus.irreflexive());
    });
}

TEST(RelationProperty, InverseLaws)
{
    forRandomTriples([](const Relation &a, const Relation &b,
                        const Relation &) {
        EXPECT_EQ(a.inverse().inverse(), a);
        EXPECT_EQ((a | b).inverse(), a.inverse() | b.inverse());
        EXPECT_EQ((a & b).inverse(), a.inverse() & b.inverse());
        // (r1 ; r2)^-1 = r2^-1 ; r1^-1, and closure commutes with
        // inversion.
        EXPECT_EQ(a.seq(b).inverse(), b.inverse().seq(a.inverse()));
        EXPECT_EQ(a.plus().inverse(), a.inverse().plus());
        // Domain and range swap under inversion.
        EXPECT_EQ(a.inverse().domain(), a.range());
        EXPECT_EQ(a.inverse().range(), a.domain());
    });
}

TEST(RelationProperty, CompositionLaws)
{
    forRandomTriples([](const Relation &a, const Relation &b,
                        const Relation &c) {
        const std::size_t n = a.size();
        const Relation id = Relation::identity(n);
        const Relation empty(n);
        // Monoid with identity `id` and absorbing element `empty`.
        EXPECT_EQ(a.seq(b).seq(c), a.seq(b.seq(c)));
        EXPECT_EQ(a.seq(id), a);
        EXPECT_EQ(id.seq(a), a);
        EXPECT_TRUE(a.seq(empty).empty());
        EXPECT_TRUE(empty.seq(a).empty());
        // Composition distributes over union on both sides.
        EXPECT_EQ(a.seq(b | c), a.seq(b) | a.seq(c));
        EXPECT_EQ((a | b).seq(c), a.seq(c) | b.seq(c));
    });
}

// Naive pair-set reference implementations ---------------------------
//
// The production enumerator prunes subtrees based on what the
// closure/acyclicity primitives report, so those primitives are
// checked here against the most boring possible implementation: an
// explicit set of pairs, closed by repeated joining.

using PairSet = std::set<std::pair<EventId, EventId>>;

PairSet
toPairs(const Relation &r)
{
    PairSet out;
    for (EventId a = 0; a < r.size(); ++a) {
        for (EventId b = 0; b < r.size(); ++b) {
            if (r.contains(a, b))
                out.emplace(a, b);
        }
    }
    return out;
}

/** Transitive closure by joining until fixpoint. */
PairSet
naiveClosure(PairSet pairs)
{
    for (;;) {
        PairSet next = pairs;
        for (const auto &[a, b] : pairs) {
            for (const auto &[c, d] : pairs) {
                if (b == c)
                    next.emplace(a, d);
            }
        }
        if (next == pairs)
            return pairs;
        pairs = std::move(next);
    }
}

bool
naiveAcyclic(const PairSet &pairs)
{
    for (const auto &[a, b] : naiveClosure(pairs)) {
        if (a == b)
            return false;
    }
    return true;
}

/** Dense and sparse relations across a spread of sizes. */
template <typename Check>
void
forRandomDensities(Check check)
{
    Rng rng(20260806);
    for (std::size_t n : {1, 2, 4, 7, 12}) {
        // fill/64 density from near-empty to near-full.
        for (std::uint64_t fill : {1, 8, 24, 48, 62}) {
            for (int round = 0; round < 4; ++round)
                check(randomRelation(rng, n, fill));
        }
    }
}

TEST(RelationProperty, TransitiveClosureMatchesNaiveReference)
{
    forRandomDensities([](const Relation &a) {
        EXPECT_EQ(toPairs(a.plus()), naiveClosure(toPairs(a)));
        // r* = r+ | id on top of the verified closure.
        PairSet star = naiveClosure(toPairs(a));
        for (EventId e = 0; e < a.size(); ++e)
            star.emplace(e, e);
        EXPECT_EQ(toPairs(a.star()), star);
    });
}

TEST(RelationProperty, AcyclicMatchesNaiveReference)
{
    forRandomDensities([](const Relation &a) {
        EXPECT_EQ(a.acyclic(), naiveAcyclic(toPairs(a)));
        // findCycle's verdict must agree with the reference, and
        // its witness (checked real in CycleWitnessesAreReal) is
        // only absent when the reference finds no cycle.
        EXPECT_EQ(a.findCycle().has_value(),
                  !naiveAcyclic(toPairs(a)));
    });
}

TEST(RelationProperty, CycleWitnessesAreReal)
{
    forRandomTriples([](const Relation &a, const Relation &,
                        const Relation &) {
        const auto cycle = a.findCycle();
        EXPECT_EQ(cycle.has_value(), !a.acyclic());
        if (!cycle)
            return;
        // Every reported edge, including the closing one, must be in
        // the relation.
        ASSERT_FALSE(cycle->empty());
        for (std::size_t i = 0; i < cycle->size(); ++i) {
            const EventId from = (*cycle)[i];
            const EventId to = (*cycle)[(i + 1) % cycle->size()];
            EXPECT_TRUE(a.contains(from, to));
        }
    });
}

} // namespace
} // namespace lkmm

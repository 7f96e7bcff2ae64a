/**
 * @file
 * Syntactic classification of cat statements for the rf-first
 * engine: which of its saturation axioms does this model provably
 * enforce?
 *
 * The engine (exec/enumerate.hh) may assume an axiom only when the
 * model rejects every execution violating it, so the analysis is a
 * one-sided superset check and unconditionally conservative:
 *
 *  - coherence: some `acyclic e` statement with
 *    e ⊇ po-loc | rf | co | fr.  Supersets are derived
 *    syntactically — union grows them, closures (e+, e*, e?)
 *    contain their body, [M];x;[M] contains x ∩ (M×M) which covers
 *    every communication builtin, identifiers resolve through
 *    non-recursive let bindings.  Anything unrecognized contributes
 *    nothing.
 *
 *  - atomicity: some `empty e` statement with e syntactically equal
 *    to rmw & (fre ; coe) (either operand order of &), again
 *    resolving identifiers through lets.
 *
 * A false negative only costs pruning (the engine still enumerates
 * exactly); a false positive would cost soundness, which is why
 * only these whitelisted shapes are accepted.
 */

#ifndef LKMM_CAT_CLASSIFY_HH
#define LKMM_CAT_CLASSIFY_HH

#include "cat/ast.hh"
#include "relation/saturation.hh"

namespace lkmm::cat
{

/** Derive the saturation promises this cat model supports. */
rel::SaturationSupport classifyAxioms(const CatFile &file);

} // namespace lkmm::cat

#endif // LKMM_CAT_CLASSIFY_HH

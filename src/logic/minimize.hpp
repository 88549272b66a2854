// Two-level minimization.
//
// Two engines:
//  * minimizeExact: Quine-McCluskey prime generation + essential extraction +
//    greedy cover of the remainder.  Exact primes; near-minimal covers.
//    Practical up to ~14 variables.
//  * minimizeExpand: ESPRESSO-style single-cube expansion against the offset;
//    heuristic but fast, handles larger variable counts.
//
// minimize() dispatches on variable count; minimizeReference() runs the same
// dispatch over the scalar reference engines.  All results are verified
// implementable against the spec by `implements`.
#pragma once

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::logic {

/// Quine-McCluskey prime implicants of (onset + dcset).  Fast path: one
/// stable sort recovers the bucket order and merge partners are hash
/// lookups (flip one clear care bit), replacing the reference's per-level
/// map-of-buckets and all-pairs merge scans.  Emits the same primes in the
/// same order as primeImplicantsReference.
std::vector<Cube> primeImplicants(const TruthTable& tt);

/// The original map-and-scan QM prime generation.  Kept callable for
/// cross-checking and for the kernel benchmark's naive regime.
std::vector<Cube> primeImplicantsReference(const TruthTable& tt);

/// Exact-prime minimization (QM); requires numVars <= 14.
Cover minimizeExact(const TruthTable& tt);

/// Heuristic expand-based minimization; any supported variable count.
/// Bit-parallel: row sets are 64-rows-per-word bitsets, so each trial
/// literal drop is tested against the offset in O(rows/64) word operations.
/// Produces the same cover as minimizeExpandReference (same expansion
/// decisions in the same order).
Cover minimizeExpand(const TruthTable& tt);

/// The scalar reference expand (one Cube::covers call per offset row per
/// trial).  Kept callable for cross-checking and for the kernel benchmark's
/// naive regime; bit-identical covers to minimizeExpand.
Cover minimizeExpandReference(const TruthTable& tt);

/// Dispatch: exact up to 14 variables (when at most 4096 onset + don't-care
/// rows), expand beyond.  Stateless: every call minimizes afresh.  Callers
/// that see the same table repeatedly (the functions of one machine, the
/// controllers of one distributed unit) deduplicate themselves -- see
/// synth::synthesize and synth::synthesizeControllers.
Cover minimize(const TruthTable& tt);

/// The same dispatch over the reference engines (primeImplicantsReference,
/// minimizeExpandReference).  Cover-identical to minimize(); an oracle for
/// the identity tests and the kernel benchmark's naive regime.
Cover minimizeReference(const TruthTable& tt);

/// True when `cover` is 1 on every onset row and 0 on every offset row of
/// `spec` (don't-cares unconstrained).
bool implements(const Cover& cover, const TruthTable& spec);

}  // namespace tauhls::logic

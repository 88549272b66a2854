// Two-level minimization.
//
// A function is specified by cubes (CubeSpec): its onset and its offset as
// lists of product terms, don't-care everywhere else.  minimize() dispatches:
//  * minimizeExact: up to 14 variables the spec is painted into a
//    TruthTable, and when at most 4096 rows are onset or don't-care,
//    Quine-McCluskey prime generation + essential extraction + greedy cover
//    of the remainder run on it.  Exact primes; near-minimal covers.
//  * minimizeExpand: every other function.  ESPRESSO-style single-cube
//    expansion against the offset, computed on the cubes themselves (no
//    2^n table), so its cost follows the size of the spec, not of the
//    variable space.
//
// minimizeReference() is the reference regime: the same dispatch over an
// explicit truth table with the scalar engines.  All results are verified
// implementable against their spec by `implements`.
#pragma once

#include <cstddef>
#include <vector>

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::logic {

/// An incompletely specified single-output function: 1 on every minterm of
/// an `on` cube, 0 on every minterm of an `off` cube, don't-care elsewhere.
/// The two lists must not share a minterm; cubes may overlap within a list.
struct CubeSpec {
  int numVars = 0;
  std::vector<Cube> on;
  std::vector<Cube> off;

  /// The spec as an explicit table (numVars <= 24).
  TruthTable table() const;

  friend bool operator==(const CubeSpec&, const CubeSpec&) = default;
  /// For deduplicating identical specs (std::unordered_map<CubeSpec, ...,
  /// CubeSpec::Hash>).
  struct Hash {
    std::size_t operator()(const CubeSpec& spec) const;
  };
};

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

/// Expand-based minimization on cubes; any variable count up to 64.  A
/// fixed decision sequence: take the lowest onset minterm no chosen cube
/// covers (found by splitting the most-significant variable first), drop
/// its literals in variable order 0..n-1 keeping each drop whose enlarged
/// cube meets no offset cube, add the cube; at the end removeContained.
/// Those are exactly the decisions of the row-by-row table expand, so the
/// cover equals minimizeExpandReference on the painted table, cube for cube.
Cover minimizeExpand(const CubeSpec& spec);

/// The scalar reference expand on an explicit table (one Cube::covers call
/// per offset row per trial).  Kept callable for cross-checking and for the
/// kernel benchmark's naive regime.
Cover minimizeExpandReference(const TruthTable& tt);

/// Dispatch: exact up to 14 variables (when at most 4096 onset + don't-care
/// rows), expand otherwise.  Stateless: every call minimizes afresh.
/// Callers that see the same spec repeatedly (the functions of one machine,
/// the controllers of one distributed unit) deduplicate themselves -- see
/// synth::synthesize and synth::synthesizeControllers.
Cover minimize(const CubeSpec& spec);

/// The same dispatch over the reference engines (primeImplicantsReference,
/// minimizeExpandReference) on an explicit table.  Cover-identical to
/// minimize() of the same function; an oracle for the identity tests and
/// the kernel benchmark's naive regime.
Cover minimizeReference(const TruthTable& tt);

/// True when `cover` is 1 on every onset row and 0 on every offset row of
/// `spec` (don't-cares unconstrained).
bool implements(const Cover& cover, const TruthTable& spec);

/// The same on cubes: `cover` contains every onset cube's minterms and meets
/// no offset cube.
bool implements(const Cover& cover, const CubeSpec& spec);

}  // namespace tauhls::logic

// Latency statistics over the Bernoulli(P) operand-class model (Table 2).
//
// Three estimators:
//  * CentSync averages are closed-form: each TAUBM step costs 2 cycles unless
//    all of its k TAU ops hit SD, so E[cycles] = sum over steps of (2 - p^k).
//    O(steps) regardless of the TAU count -- the sync column of every sweep
//    is always exact, with no enumeration cap.
//  * Distributed averages enumerate all 2^n SD/LD assignments of the n
//    TAU-bound ops whenever n <= 24, through the one mask walker (walkMasks):
//    each chunk is walked in Gray-code order so consecutive masks differ in a
//    single TAU op, which a MakespanEngine::DistributedSweep re-evaluates
//    incrementally; per-worker scratch is reused across chunks, so the hot
//    loop performs no allocation.  A mask's makespan does not depend on P, so
//    one walk serves every P of a sweep: each chunk is reweighted per P while
//    it is hot.  The exact pmf (distribution.hpp) and the makespan histogram
//    (region_sim.hpp) are folds over the same walker.
//  * Seeded Monte-Carlo sampling for larger designs: one adaptive estimator
//    (samples are drawn as masks and evaluated through the same scratch
//    engine); a fixed sample count N is the estimator with
//    mcSamples == mcMaxSamples == N.
//
// All estimators are parallel (common/parallel.hpp; TAUHLS_THREADS lanes)
// and deterministic: the enumeration/sample space is cut into a fixed chunk
// grid that depends only on the problem size, per-chunk partials are folded
// in chunk-index order (the Gray-code walk only reorders *evaluation*; the
// weighted accumulation stays in ascending mask order), and Monte-Carlo
// sample i always draws from counter seed 1 + i -- so every statistic is
// bit-identical for any thread count, and the enumeration result is
// bit-identical to the brute-force reference implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/makespan.hpp"

namespace tauhls::sim {

enum class ControlStyle {
  Distributed,  ///< the paper's proposal (LT_DIST)
  CentSync,     ///< synchronized TAUBM expansion (LT_TAU)
};

/// Exact-enumeration cap for the Distributed style (CentSync is closed-form
/// and uncapped).
inline constexpr int kMaxExactTauOps = 24;

/// Makespan in cycles under `style` for a specific class assignment.
int makespanCycles(const sched::ScheduledDfg& s, ControlStyle style,
                   const OperandClasses& classes);

/// Best case: every TAU op in the SD class.
int bestCaseCycles(const sched::ScheduledDfg& s, ControlStyle style);
/// Worst case: every TAU op in the LD class.
int worstCaseCycles(const sched::ScheduledDfg& s, ControlStyle style);
/// As above, reusing a prebuilt engine (no schedule bookkeeping rebuild).
int bestCaseCycles(const MakespanEngine& engine, ControlStyle style);
int worstCaseCycles(const MakespanEngine& engine, ControlStyle style);

/// weights[c] is the probability of one specific mask of `n` TAU ops with
/// c of them SD: p^c * (1-p)^(n-c), bit-identical to two std::pow calls.
std::vector<double> maskWeights(int n, double p);

namespace detail {
using MaskChunkVisitor =
    std::function<void(std::size_t chunk, std::uint64_t base,
                       std::uint64_t count, const int* cycles)>;
std::size_t maskChunkCount(int numTauOps);
void walkMaskChunks(const MakespanEngine& engine, ControlStyle style,
                    const MaskChunkVisitor& visit);
}  // namespace detail

/// The 2^n mask walker: the makespan under `style` of every class mask of
/// the engine's TAU ops (requires n <= kMaxExactTauOps).  The masks are cut
/// into a fixed chunk grid (one chunk when 2^n <= 256); map(base, count,
/// cycles) sees cycles[off] = makespan of mask base + off and returns the
/// chunk's partial.  Chunks run concurrently on per-worker scratch, so `map`
/// must only read shared state.  The partials come back in chunk order; a
/// caller that folds them in that order gets the same result for every
/// thread count.  Distributed makespans come from the Gray-code evalChunk,
/// CentSync ones from syncCycles(mask).
template <typename T, typename Map>
std::vector<T> walkMasks(const MakespanEngine& engine, ControlStyle style,
                         Map&& map) {
  std::vector<T> partials(detail::maskChunkCount(engine.numTauOps()));
  detail::walkMaskChunks(
      engine, style,
      [&](std::size_t chunk, std::uint64_t base, std::uint64_t count,
          const int* cycles) { partials[chunk] = map(base, count, cycles); });
  return partials;
}

/// Expected makespan (cycles): closed form for CentSync (any TAU count),
/// exact enumeration for Distributed (requires <= 24 TAU ops).
double averageCyclesExact(const sched::ScheduledDfg& s, ControlStyle style,
                          double p);

/// As above, reusing a prebuilt engine (sweeps evaluate many P values per
/// schedule; building the engine once is the memoized fast path).
double averageCyclesExact(const MakespanEngine& engine, ControlStyle style,
                          double p);

/// Expected makespan for every P in `ps` at once.  The Distributed makespan
/// of a mask does not depend on P, so one walk of the 2^n assignments serves
/// every P: each chunk is reweighted for every P while it is hot.  Each P's
/// partials fold in chunk order, so every entry is bit-identical to the
/// corresponding averageCyclesExact(engine, style, ps[i]) call, which is
/// this sweep for one P.  This is the Table 2 path.
std::vector<double> averageCyclesExactSweep(const MakespanEngine& engine,
                                            ControlStyle style,
                                            const std::vector<double>& ps);

/// Brute-force reference enumerator (the pre-Gray-code algorithm: one full
/// makespan sweep and two pow() calls per mask).  Kept for cross-validation
/// and benchmarking; averageCyclesExact is bit-identical to it for the
/// Distributed style and agrees to rounding for CentSync.
double averageCyclesExactReference(const sched::ScheduledDfg& s,
                                   const MakespanEngine& engine,
                                   ControlStyle style, double p);

/// One Table 2 row for one control style.
struct LatencyRow {
  double bestNs = 0.0;
  std::vector<double> averageNs;  ///< one entry per requested P
  double worstNs = 0.0;
};

/// Full Table 2 entry: LT_TAU (CentSync), LT_DIST (Distributed) and the
/// paper's enhancement percentages per P value.
struct LatencyComparison {
  std::vector<double> ps;
  LatencyRow tau;
  LatencyRow dist;
  std::vector<double> enhancementPercent;  ///< (tau - dist) / tau * 100, per P
};

/// The comparison from per-style rows given in *cycles*: every field is
/// scaled by `clockNs` and the enhancement row is derived per P.
LatencyComparison latencyComparison(const std::vector<double>& ps,
                                    double clockNs, LatencyRow tauCycles,
                                    LatencyRow distCycles);

/// A seeded confidence-interval Monte-Carlo estimate: mean cycles, the 95%
/// CI half-width around it, and how many samples were spent to get there.
struct McEstimate {
  double mean = 0.0;
  double halfWidth = 0.0;
  std::uint64_t samples = 0;
};

/// Monte-Carlo policy past the exact-enumeration cap.
struct LatencyOptions {
  /// First Monte-Carlo batch; rounds double from here.
  int mcSamples = 20000;
  /// Hard per-P sample ceiling (the estimator stops doubling here even if
  /// the target half-width is not reached).
  int mcMaxSamples = 1 << 20;
  /// Stop once the 95% CI half-width (in cycles) is at or below this.
  double mcTargetHalfWidth = 0.05;
};

/// Adaptive seeded Monte-Carlo: sample counts double (each round recomputed
/// from scratch over counter seeds, so the estimate is bit-identical for any
/// thread count) until the 95% CI half-width reaches
/// `options.mcTargetHalfWidth` or `options.mcMaxSamples` is hit.  With
/// mcSamples == mcMaxSamples it is a fixed-N estimate.
McEstimate averageCyclesMonteCarloAdaptive(const sched::ScheduledDfg& s,
                                           const MakespanEngine& engine,
                                           ControlStyle style, double p,
                                           const LatencyOptions& options = {});

/// The Table 2 comparison: the CentSync row is always closed-form exact; the
/// Distributed row is enumerated exactly up to kMaxExactTauOps TAU ops and
/// estimated by the adaptive Monte-Carlo estimator beyond.  When `mcInfo`
/// is non-null it receives one entry per P (empty estimates when the exact
/// path ran).
LatencyComparison compareLatencies(const sched::ScheduledDfg& s,
                                   const std::vector<double>& ps,
                                   const LatencyOptions& options = {},
                                   std::vector<McEstimate>* mcInfo = nullptr);

// --- multi-level units (paper §6) ---------------------------------------
// Level statistics over `overrides` (tau::MultiLevelLibrary): every op draws
// its level from its class's pmf (two-level TAU classes: SD with P).  The
// exact mixed-radix enumeration runs over a fixed chunk grid with partials
// folded in chunk order, so results are bit-identical for any thread count.

/// Makespan in cycles under `style` for a level assignment.
int makespanCycles(const sched::ScheduledDfg& s, ControlStyle style,
                   const LevelClasses& classes);

/// Exact expected makespan (cycles); the assignment space (product of the
/// variable ops' level counts) must fit 2^20.
double averageCyclesExact(const sched::ScheduledDfg& s,
                          const tau::MultiLevelLibrary& overrides,
                          ControlStyle style);

/// Monte-Carlo expectation over randomLevels(s, overrides, seed + i).
double averageCyclesMonteCarlo(const sched::ScheduledDfg& s,
                               const tau::MultiLevelLibrary& overrides,
                               ControlStyle style, int samples,
                               std::uint64_t seed = 1);

/// Exact when the assignment space fits 2^20, else Monte-Carlo with
/// `mcSamples` samples.
double averageCycles(const sched::ScheduledDfg& s,
                     const tau::MultiLevelLibrary& overrides,
                     ControlStyle style, int mcSamples = 20000);

}  // namespace tauhls::sim

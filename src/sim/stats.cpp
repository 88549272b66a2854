#include "sim/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace tauhls::sim {

namespace {

// Monte-Carlo sample i always draws from counter seed kMcSeed + i.
constexpr std::uint64_t kMcSeed = 1;

// std::pow with the IEEE-exact trivial exponents short-circuited: pow(x,0)
// is exactly 1 and pow(x,1) is exactly x, so the result is bit-identical to
// the library call while skipping it for the two most common exponents.
double powInt(double base, int exponent) {
  if (exponent == 0) return 1.0;
  if (exponent == 1) return base;
  return std::pow(base, exponent);
}

// Per-worker scratch, handed out through a small freelist so buffers are
// reused across chunks (and across masks / Monte-Carlo samples within a
// chunk) instead of being reallocated: the enumeration hot loop never
// allocates after warm-up.
struct SweepScratch {
  explicit SweepScratch(const MakespanEngine& engine) : sweep(engine) {}
  MakespanEngine::DistributedSweep sweep;
  std::vector<int> cycles;
};

class ScratchPool {
 public:
  explicit ScratchPool(const MakespanEngine& engine) : engine_(engine) {}

  std::unique_ptr<SweepScratch> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<SweepScratch> scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<SweepScratch>(engine_);
  }

  void release(std::unique_ptr<SweepScratch> scratch) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch));
  }

 private:
  const MakespanEngine& engine_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<SweepScratch>> free_;
};

// Weighted partial sum of one contiguous mask range, accumulated in
// ascending mask order (the fold order every estimator in this file commits
// to; see the header's determinism contract).
double weightedRangeSum(const int* cycles, std::uint64_t base,
                        std::uint64_t count, const std::vector<double>& weights) {
  double partial = 0.0;
  for (std::uint64_t off = 0; off < count; ++off) {
    const double weight =
        weights[static_cast<std::size_t>(std::popcount(base + off))];
    if (weight == 0.0) continue;
    partial += weight * cycles[off];
  }
  return partial;
}

// Expected Distributed makespan for every P in `ps`: one walk, each chunk
// reweighted for every P while it is hot, each P's partials folded in chunk
// order -- so an entry depends neither on the thread count nor on the other
// P values.
std::vector<double> distributedAverageExact(const MakespanEngine& engine,
                                            const std::vector<double>& ps) {
  std::vector<double> out(ps.size());
  std::vector<std::size_t> swept;  // entries that need the enumeration
  std::vector<std::vector<double>> weights;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
    // Degenerate P: a single mask carries all the weight.
    if (p == 1.0) {
      out[i] = engine.bestDistributedCycles();
    } else if (p == 0.0) {
      out[i] = engine.worstDistributedCycles();
    } else {
      swept.push_back(i);
      weights.push_back(maskWeights(engine.numTauOps(), p));
    }
  }
  if (swept.empty()) return out;

  const std::vector<std::vector<double>> partials =
      walkMasks<std::vector<double>>(
          engine, ControlStyle::Distributed,
          [&](std::uint64_t base, std::uint64_t count, const int* cycles) {
            std::vector<double> sums(weights.size());
            for (std::size_t k = 0; k < weights.size(); ++k) {
              sums[k] = weightedRangeSum(cycles, base, count, weights[k]);
            }
            return sums;
          });
  for (std::size_t k = 0; k < swept.size(); ++k) {
    double acc = 0.0;
    for (const std::vector<double>& sums : partials) acc += sums[k];
    out[swept[k]] = acc;
  }
  return out;
}

// Deterministic first and second moments of the makespan over `total`
// counter-seeded samples (sample i is always kMcSeed + i; partials fold in
// ascending chunk order).
std::pair<double, double> mcMoments(const sched::ScheduledDfg& s,
                                    const MakespanEngine& engine,
                                    ControlStyle style, double p,
                                    std::uint64_t total) {
  const int n = engine.numTauOps();
  const bool maskable = engine.supportsMasks();
  const std::vector<dfg::NodeId> taus = maskable ? std::vector<dfg::NodeId>{}
                                                 : tauOps(s);
  const std::uint64_t numChunks = common::chunkCountFor(total);
  const std::uint64_t chunkSize = (total + numChunks - 1) / numChunks;
  ScratchPool pool(engine);
  using Moments = std::pair<double, double>;
  return common::parallelReduce<Moments>(
      static_cast<std::size_t>(numChunks), {0.0, 0.0},
      [&](std::size_t chunk) {
        const std::uint64_t begin = chunk * chunkSize;
        const std::uint64_t end =
            begin + chunkSize < total ? begin + chunkSize : total;
        Moments partial{0.0, 0.0};
        if (maskable) {
          // Mask-native sampling: no OperandClasses vector, one reused sweep.
          std::unique_ptr<SweepScratch> scratch =
              style == ControlStyle::Distributed ? pool.acquire() : nullptr;
          for (std::uint64_t i = begin; i < end; ++i) {
            const std::uint64_t mask = randomClassMask(n, p, kMcSeed + i);
            const double cycles = style == ControlStyle::Distributed
                                      ? scratch->sweep.evalFull(mask)
                                      : engine.syncCycles(mask);
            partial.first += cycles;
            partial.second += cycles * cycles;
          }
          if (scratch) pool.release(std::move(scratch));
        } else {
          OperandClasses classes;
          for (std::uint64_t i = begin; i < end; ++i) {
            randomClasses(s, taus, p, kMcSeed + i, classes);
            const double cycles = style == ControlStyle::Distributed
                                      ? engine.distributedCycles(classes)
                                      : engine.syncCycles(classes);
            partial.first += cycles;
            partial.second += cycles * cycles;
          }
        }
        return partial;
      },
      [](Moments acc, Moments partial) {
        return Moments{acc.first + partial.first, acc.second + partial.second};
      });
}

}  // namespace

std::vector<double> maskWeights(int n, double p) {
  std::vector<double> weights(static_cast<std::size_t>(n) + 1);
  for (int c = 0; c <= n; ++c) {
    weights[static_cast<std::size_t>(c)] =
        powInt(p, c) * powInt(1.0 - p, n - c);
  }
  return weights;
}

namespace detail {

std::size_t maskChunkCount(int numTauOps) {
  TAUHLS_CHECK(numTauOps <= kMaxExactTauOps,
               "exact enumeration needs <= " + std::to_string(kMaxExactTauOps) +
                   " TAU ops, got " + std::to_string(numTauOps));
  const std::uint64_t total = std::uint64_t{1} << numTauOps;
  return total <= 256 ? 1
                      : static_cast<std::size_t>(common::chunkCountFor(total));
}

void walkMaskChunks(const MakespanEngine& engine, ControlStyle style,
                    const MaskChunkVisitor& visit) {
  const int n = engine.numTauOps();
  const std::size_t numChunks = maskChunkCount(n);
  const auto fill = [&](MakespanEngine::DistributedSweep& sweep,
                        std::uint64_t base, std::uint64_t count, int* cycles) {
    if (style == ControlStyle::Distributed) {
      sweep.evalChunk(base, count, cycles);
      return;
    }
    for (std::uint64_t off = 0; off < count; ++off) {
      cycles[off] = engine.syncCycles(base + off);
    }
  };
  const std::uint64_t total = std::uint64_t{1} << n;
  if (numChunks == 1) {
    // Small designs fit one walk.  Their chunkCountFor grid would hold one
    // mask per chunk, so an ascending-order fold over the single walk
    // associates exactly like the chunk-order fold over that grid.
    MakespanEngine::DistributedSweep sweep(engine);
    int cycles[256];
    fill(sweep, 0, total, cycles);
    visit(0, 0, total, cycles);
    return;
  }
  const std::uint64_t chunkSize = total / numChunks;  // both are powers of 2
  ScratchPool pool(engine);
  common::parallelFor(numChunks, [&](std::size_t chunk) {
    std::unique_ptr<SweepScratch> scratch = pool.acquire();
    scratch->cycles.resize(chunkSize);
    const std::uint64_t base = chunk * chunkSize;
    fill(scratch->sweep, base, chunkSize, scratch->cycles.data());
    visit(chunk, base, chunkSize, scratch->cycles.data());
    pool.release(std::move(scratch));
  });
}

}  // namespace detail

int makespanCycles(const sched::ScheduledDfg& s, ControlStyle style,
                   const OperandClasses& classes) {
  return style == ControlStyle::Distributed
             ? distributedMakespanCycles(s, classes)
             : syncMakespanCycles(s, classes);
}

int bestCaseCycles(const MakespanEngine& engine, ControlStyle style) {
  return style == ControlStyle::Distributed ? engine.bestDistributedCycles()
                                            : engine.bestSyncCycles();
}

int worstCaseCycles(const MakespanEngine& engine, ControlStyle style) {
  return style == ControlStyle::Distributed ? engine.worstDistributedCycles()
                                            : engine.worstSyncCycles();
}

int bestCaseCycles(const sched::ScheduledDfg& s, ControlStyle style) {
  return bestCaseCycles(MakespanEngine(s), style);
}

int worstCaseCycles(const sched::ScheduledDfg& s, ControlStyle style) {
  return worstCaseCycles(MakespanEngine(s), style);
}

double averageCyclesExact(const sched::ScheduledDfg& s, ControlStyle style,
                          double p) {
  return averageCyclesExact(MakespanEngine(s), style, p);
}

double averageCyclesExact(const MakespanEngine& engine, ControlStyle style,
                          double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  return averageCyclesExactSweep(engine, style, {p}).front();
}

std::vector<double> averageCyclesExactSweep(const MakespanEngine& engine,
                                            ControlStyle style,
                                            const std::vector<double>& ps) {
  if (style == ControlStyle::Distributed) {
    return distributedAverageExact(engine, ps);
  }
  std::vector<double> out(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out[i] = engine.syncExpectedCycles(ps[i]);
  }
  return out;
}

double averageCyclesExactReference(const sched::ScheduledDfg& s,
                                   const MakespanEngine& engine,
                                   ControlStyle style, double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const std::vector<dfg::NodeId> taus = tauOps(s);
  const int n = static_cast<int>(taus.size());
  TAUHLS_CHECK(n <= kMaxExactTauOps,
               "exact enumeration limited to 24 TAU ops");
  const std::uint64_t total = std::uint64_t{1} << n;
  const std::uint64_t numChunks = common::chunkCountFor(total);
  const std::uint64_t chunkSize = total / numChunks;
  return common::parallelReduce<double>(
      static_cast<std::size_t>(numChunks), 0.0,
      [&](std::size_t chunk) {
        const std::uint64_t begin = chunk * chunkSize;
        const std::uint64_t end = begin + chunkSize;
        double partial = 0.0;
        for (std::uint64_t mask = begin; mask < end; ++mask) {
          const int shortCount = std::popcount(mask);
          const double weight = std::pow(p, shortCount) *
                                std::pow(1.0 - p, n - shortCount);
          if (weight == 0.0) continue;
          OperandClasses classes = allShort(s);
          for (std::size_t i = 0; i < taus.size(); ++i) {
            classes.shortClass[taus[i]] = (mask >> i) & 1;
          }
          const int cycles = style == ControlStyle::Distributed
                                 ? engine.distributedCycles(classes)
                                 : engine.syncCycles(classes);
          partial += weight * cycles;
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
}

LatencyComparison latencyComparison(const std::vector<double>& ps,
                                    double clockNs, LatencyRow tauCycles,
                                    LatencyRow distCycles) {
  LatencyComparison out;
  out.ps = ps;
  out.tau = std::move(tauCycles);
  out.dist = std::move(distCycles);
  for (LatencyRow* row : {&out.tau, &out.dist}) {
    row->bestNs *= clockNs;
    row->worstNs *= clockNs;
    for (double& avg : row->averageNs) avg *= clockNs;
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double tau = out.tau.averageNs[i];
    const double dist = out.dist.averageNs[i];
    out.enhancementPercent.push_back(tau > 0.0 ? (tau - dist) / tau * 100.0
                                               : 0.0);
  }
  return out;
}

McEstimate averageCyclesMonteCarloAdaptive(const sched::ScheduledDfg& s,
                                           const MakespanEngine& engine,
                                           ControlStyle style, double p,
                                           const LatencyOptions& options) {
  TAUHLS_CHECK(options.mcSamples > 0, "need at least one sample");
  TAUHLS_CHECK(options.mcMaxSamples >= options.mcSamples,
               "mcMaxSamples below the initial batch");
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const std::uint64_t ceiling =
      static_cast<std::uint64_t>(options.mcMaxSamples);
  std::uint64_t n = static_cast<std::uint64_t>(options.mcSamples);
  McEstimate est;
  for (;;) {
    // Each round recomputes its moments from scratch over samples [0, n):
    // the doubling costs at most one extra pass in total, and the result
    // for a given n never depends on the rounds that preceded it.
    const auto [sum, sumSq] = mcMoments(s, engine, style, p, n);
    est.mean = sum / static_cast<double>(n);
    est.samples = n;
    const double variance =
        n > 1 ? std::max(0.0, (sumSq - sum * est.mean) /
                                  static_cast<double>(n - 1))
              : 0.0;
    est.halfWidth = 1.96 * std::sqrt(variance / static_cast<double>(n));
    if (est.halfWidth <= options.mcTargetHalfWidth || n >= ceiling) break;
    n = std::min(n * 2, ceiling);
  }
  return est;
}

LatencyComparison compareLatencies(const sched::ScheduledDfg& s,
                                   const std::vector<double>& ps,
                                   const LatencyOptions& options,
                                   std::vector<McEstimate>* mcInfo) {
  // One engine serves every (style, P) cell of the comparison.
  const MakespanEngine engine(s);
  LatencyRow tau{static_cast<double>(engine.bestSyncCycles()),
                 averageCyclesExactSweep(engine, ControlStyle::CentSync, ps),
                 static_cast<double>(engine.worstSyncCycles())};
  LatencyRow dist{static_cast<double>(engine.bestDistributedCycles()),
                  {},
                  static_cast<double>(engine.worstDistributedCycles())};
  if (mcInfo != nullptr) mcInfo->assign(ps.size(), McEstimate{});
  if (engine.numTauOps() <= kMaxExactTauOps) {
    dist.averageNs =
        averageCyclesExactSweep(engine, ControlStyle::Distributed, ps);
  } else {
    // Each P runs its own doubling loop; the loops already parallelize
    // internally over the sample range, so the fan-out here stays serial
    // per P to keep the scratch footprint bounded.
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const McEstimate est = averageCyclesMonteCarloAdaptive(
          s, engine, ControlStyle::Distributed, ps[i], options);
      dist.averageNs.push_back(est.mean);
      if (mcInfo != nullptr) (*mcInfo)[i] = est;
    }
  }
  return latencyComparison(ps, s.clockNs, std::move(tau), std::move(dist));
}

int makespanCycles(const sched::ScheduledDfg& s, ControlStyle style,
                   const LevelClasses& classes) {
  return style == ControlStyle::Distributed
             ? distributedMakespanCycles(s, levelCycles(classes))
             : syncMakespanCycles(s, levelCycles(classes));
}

namespace {

/// An op with more than one possible level, with its level pmf.
struct VariableOp {
  dfg::NodeId op;
  std::vector<double> probs;
};

std::vector<VariableOp> variableOps(const sched::ScheduledDfg& s,
                                    const tau::MultiLevelLibrary& overrides) {
  std::vector<VariableOp> out;
  for (dfg::NodeId v : s.graph.opIds()) {
    const int unitId = s.binding.unitOf(v);
    const dfg::ResourceClass cls = s.binding.unit(unitId).cls;
    auto it = overrides.find(cls);
    if (it != overrides.end()) {
      if (it->second.numLevels() > 1) {
        out.push_back({v, it->second.levelProbabilities});
      }
    } else if (s.unitIsTelescopic(unitId)) {
      const double p = s.library.typeFor(cls).sdProbability;
      out.push_back({v, {p, 1.0 - p}});
    }
  }
  return out;
}

double assignmentSpace(const std::vector<VariableOp>& vars) {
  double space = 1.0;
  for (const VariableOp& v : vars) space *= static_cast<double>(v.probs.size());
  return space;
}

}  // namespace

double averageCyclesExact(const sched::ScheduledDfg& s,
                          const tau::MultiLevelLibrary& overrides,
                          ControlStyle style) {
  const std::vector<VariableOp> vars = variableOps(s, overrides);
  const double space = assignmentSpace(vars);
  TAUHLS_CHECK(space <= (1 << 20),
               "exact enumeration space too large; use Monte-Carlo");
  const auto total = static_cast<std::uint64_t>(space);

  // The mixed-radix odometer (digit 0 fastest) is a bijection between linear
  // indices [0, total) and level assignments, so the space splits into a
  // fixed chunk grid of contiguous index ranges.  Within a chunk the
  // assignment weight is maintained via suffix products (weight = suffix[0];
  // an increment at digit `pos` only refreshes suffix[pos..0]).
  const std::uint64_t numChunks = common::chunkCountFor(total);
  const std::uint64_t chunkSize = (total + numChunks - 1) / numChunks;
  return common::parallelReduce<double>(
      static_cast<std::size_t>(numChunks), 0.0,
      [&](std::size_t chunk) {
        const std::uint64_t begin = chunk * chunkSize;
        const std::uint64_t end = std::min(begin + chunkSize, total);
        if (begin >= end) return 0.0;

        LevelClasses classes = allFastest(s);
        std::vector<std::size_t> choice(vars.size(), 0);
        // Decode the chunk's first linear index into odometer digits.
        std::uint64_t rem = begin;
        for (std::size_t i = 0; i < vars.size(); ++i) {
          const std::uint64_t radix = vars[i].probs.size();
          choice[i] = static_cast<std::size_t>(rem % radix);
          rem /= radix;
          classes.levelOf[vars[i].op] = static_cast<int>(choice[i]);
        }
        // suffix[i] = product of probs[j][choice[j]] for j >= i.
        std::vector<double> suffix(vars.size() + 1, 1.0);
        for (std::size_t i = vars.size(); i-- > 0;) {
          suffix[i] = vars[i].probs[choice[i]] * suffix[i + 1];
        }

        double partial = 0.0;
        for (std::uint64_t idx = begin; idx < end; ++idx) {
          const double weight = suffix.front();
          if (weight > 0.0) {
            partial += weight * makespanCycles(s, style, classes);
          }
          // Increment digit 0, carrying into higher digits on wrap.
          std::size_t pos = 0;
          while (pos < vars.size()) {
            if (++choice[pos] < vars[pos].probs.size()) break;
            choice[pos] = 0;
            ++pos;
          }
          if (pos == vars.size()) break;
          classes.levelOf[vars[pos].op] = static_cast<int>(choice[pos]);
          for (std::size_t i = 0; i < pos; ++i) {
            classes.levelOf[vars[i].op] = 0;
          }
          for (std::size_t i = pos + 1; i-- > 0;) {
            suffix[i] = vars[i].probs[choice[i]] * suffix[i + 1];
          }
        }
        return partial;
      },
      [](double acc, double p) { return acc + p; });
}

double averageCyclesMonteCarlo(const sched::ScheduledDfg& s,
                               const tau::MultiLevelLibrary& overrides,
                               ControlStyle style, int samples,
                               std::uint64_t seed) {
  TAUHLS_CHECK(samples > 0, "need at least one sample");
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    sum += makespanCycles(
        s, style,
        randomLevels(s, overrides, seed + static_cast<std::uint64_t>(i)));
  }
  return sum / samples;
}

double averageCycles(const sched::ScheduledDfg& s,
                     const tau::MultiLevelLibrary& overrides,
                     ControlStyle style, int mcSamples) {
  if (assignmentSpace(variableOps(s, overrides)) <= (1 << 20)) {
    return averageCyclesExact(s, overrides, style);
  }
  return averageCyclesMonteCarlo(s, overrides, style, mcSamples);
}

}  // namespace tauhls::sim

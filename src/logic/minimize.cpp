#include "logic/minimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace tauhls::logic {

namespace {

struct CubeKey {
  std::uint64_t care;
  std::uint64_t value;
  auto operator<=>(const CubeKey&) const = default;
};

}  // namespace

std::vector<Cube> primeImplicants(const TruthTable& tt) {
  TAUHLS_CHECK(tt.numVars() <= 14, "primeImplicants limited to 14 variables");
  // Level 0: all onset + dc minterms as cubes.
  std::vector<Cube> current;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    if (tt.get(r) != Ternary::Zero) {
      current.push_back(Cube::minterm(tt.numVars(), r));
    }
  }
  const int vars = tt.numVars();
  const std::size_t space = std::size_t{1} << vars;

  // Scratch reused across levels.
  //  * upperPos/upperEpoch: direct-index (valueMask -> sorted position) map
  //    for the current upper bucket; epoch stamps avoid clearing.
  //  * dedup: one bit per cube, indexed by its base-3 digit number (digit v
  //    is 0 for no literal, 1 for a negative and 2 for a positive literal of
  //    variable v): 3^vars bits, 0.6 MiB at 14 variables.  A level-k cube
  //    has exactly vars-k literals, so keys never repeat across levels and
  //    the bitmap is never cleared; it replaces one hash insert per
  //    generated cube with a test-and-set.  keys[i] is current[i]'s number;
  //    merging drops a negative literal, so a merged key is keys[i] - 3^v.
  std::vector<std::uint32_t> upperPos(space, 0);
  std::vector<std::uint32_t> upperEpoch(space, 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> pow3(static_cast<std::size_t>(vars) + 1, 1);
  for (int v = 0; v < vars; ++v) pow3[v + 1] = pow3[v] * 3;
  std::vector<std::uint64_t> dedup((pow3[vars] + 63) / 64, 0);
  std::vector<std::uint32_t> keys;
  for (const Cube& m : current) {
    std::uint32_t key = 0;
    for (int v = 0; v < vars; ++v) {
      key += pow3[v] * (1 + ((m.valueMask() >> v) & 1));
    }
    keys.push_back(key);
  }

  std::vector<Cube> primes;
  while (!current.empty()) {
    const std::size_t n = current.size();
    // Recover the reference bucket order -- (care mask, value popcount)
    // ascending, original index ascending within a bucket -- with one sort
    // of precomputed packed keys instead of a node-based map of vectors.
    // pc(value) <= 14 fits in 4 bits; index tie-break keeps it stable.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = {(current[i].careMask() << 4) |
                      static_cast<std::uint64_t>(
                          std::popcount(current[i].valueMask())),
                  static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    std::vector<std::size_t> groupStart;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || order[k].first != order[k - 1].first) {
        groupStart.push_back(k);
      }
    }
    groupStart.push_back(n);

    std::vector<bool> merged(n, false);
    std::vector<Cube> next;
    std::vector<std::uint32_t> nextKeys;
    for (std::size_t g = 0; g + 2 < groupStart.size() + 1; ++g) {
      const std::size_t lo = groupStart[g];
      const std::size_t hi = groupStart[g + 1];
      // The adjacent bucket (same care, popcount + 1), if it exists, is the
      // very next group in the sorted order.
      if (hi == n) continue;
      if (order[hi].first != order[lo].first + 1) continue;
      const std::uint64_t care = order[lo].first >> 4;
      const std::size_t upperHi = groupStart[g + 2];

      // Each upper cube is identified by its value mask (unique within a
      // bucket), so i's merge partners are direct lookups: flip one clear
      // care bit of i's value.
      ++epoch;
      for (std::size_t k = hi; k < upperHi; ++k) {
        const std::uint64_t value = current[order[k].second].valueMask();
        upperPos[value] = static_cast<std::uint32_t>(k);
        upperEpoch[value] = epoch;
      }
      std::vector<std::pair<std::size_t, int>> partners;  // (sorted pos, var)
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = order[k].second;
        const std::uint64_t value = current[i].valueMask();
        partners.clear();
        std::uint64_t clear = care & ~value;
        while (clear != 0) {
          const int v = std::countr_zero(clear);
          clear &= clear - 1;
          const std::uint64_t partner = value | (std::uint64_t{1} << v);
          if (upperEpoch[partner] == epoch) {
            partners.emplace_back(upperPos[partner], v);
          }
        }
        // Reference order: upper cubes in ascending original index, which is
        // ascending position within the sorted bucket.
        std::sort(partners.begin(), partners.end());
        for (const auto& [pos, v] : partners) {
          merged[i] = merged[order[pos].second] = true;
          const std::uint32_t key = keys[i] - pow3[v];
          const std::uint64_t bit = std::uint64_t{1} << (key & 63);
          if (!(dedup[key >> 6] & bit)) {
            dedup[key >> 6] |= bit;
            Cube m = current[i];
            m.dropLiteral(v);
            next.push_back(m);
            nextKeys.push_back(key);
          }
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!merged[i]) primes.push_back(current[i]);
    }
    current = std::move(next);
    keys = std::move(nextKeys);
  }
  return primes;
}

std::vector<Cube> primeImplicantsReference(const TruthTable& tt) {
  TAUHLS_CHECK(tt.numVars() <= 14, "primeImplicants limited to 14 variables");
  // Level 0: all onset + dc minterms as cubes.
  std::vector<Cube> current;
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    if (tt.get(r) != Ternary::Zero) {
      current.push_back(Cube::minterm(tt.numVars(), r));
    }
  }
  std::vector<Cube> primes;
  while (!current.empty()) {
    // Group by care mask and by popcount of the value so only adjacent groups
    // are compared (classic QM bucketing).
    std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < current.size(); ++i) {
      buckets[{current[i].careMask(),
               std::popcount(current[i].valueMask())}].push_back(i);
    }
    std::vector<bool> merged(current.size(), false);
    std::set<CubeKey> nextKeys;
    std::vector<Cube> next;
    for (const auto& [key, indices] : buckets) {
      auto upper = buckets.find({key.first, key.second + 1});
      if (upper == buckets.end()) continue;
      for (std::size_t i : indices) {
        for (std::size_t j : upper->second) {
          if (auto m = current[i].merge(current[j])) {
            merged[i] = merged[j] = true;
            if (nextKeys.insert({m->careMask(), m->valueMask()}).second) {
              next.push_back(*m);
            }
          }
        }
      }
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!merged[i]) primes.push_back(current[i]);
    }
    current = std::move(next);
  }
  return primes;
}

namespace {

/// Select a small subset of primes covering all onset rows: essential primes
/// first, then greedy by remaining coverage (ties: fewer literals).  The
/// greedy scoring runs on 64-rows-per-word onset bitsets; counts (and hence
/// selections) are identical to a per-row scan.
Cover coverFromPrimes(const TruthTable& tt, const std::vector<Cube>& primes) {
  const std::vector<std::uint64_t> onset = tt.onset();
  Cover result(tt.numVars());
  if (onset.empty()) return result;

  // cover matrix: for each onset row, the primes covering it; for each
  // prime, the onset rows it covers as a bitset.
  const std::size_t words = (onset.size() + 63) / 64;
  std::vector<std::vector<std::size_t>> coveredBy(onset.size());
  std::vector<std::vector<std::uint64_t>> rowsOf(
      primes.size(), std::vector<std::uint64_t>(words, 0));
  for (std::size_t p = 0; p < primes.size(); ++p) {
    for (std::size_t r = 0; r < onset.size(); ++r) {
      if (primes[p].covers(onset[r])) {
        coveredBy[r].push_back(p);
        rowsOf[p][r >> 6] |= std::uint64_t{1} << (r & 63);
      }
    }
  }
  std::vector<bool> selected(primes.size(), false);
  std::vector<std::uint64_t> rowDone(words, 0);

  auto selectPrime = [&](std::size_t p) {
    selected[p] = true;
    for (std::size_t w = 0; w < words; ++w) rowDone[w] |= rowsOf[p][w];
  };

  // Essential primes.
  for (std::size_t r = 0; r < onset.size(); ++r) {
    TAUHLS_ASSERT(!coveredBy[r].empty(), "onset row not covered by any prime");
    if (coveredBy[r].size() == 1 && !selected[coveredBy[r][0]]) {
      selectPrime(coveredBy[r][0]);
    }
  }
  // Greedy remainder.
  while (true) {
    std::size_t bestPrime = primes.size();
    std::size_t bestCount = 0;
    int bestLits = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (selected[p]) continue;
      std::size_t count = 0;
      for (std::size_t w = 0; w < words; ++w) {
        count += static_cast<std::size_t>(
            std::popcount(rowsOf[p][w] & ~rowDone[w]));
      }
      if (count == 0) continue;
      const int lits = primes[p].numLiterals();
      if (count > bestCount || (count == bestCount && lits < bestLits)) {
        bestPrime = p;
        bestCount = count;
        bestLits = lits;
      }
    }
    if (bestPrime == primes.size()) break;
    selectPrime(bestPrime);
  }
  for (std::size_t p = 0; p < primes.size(); ++p) {
    if (selected[p]) result.add(primes[p]);
  }
  result.removeContained();
  return result;
}

}  // namespace

Cover minimizeExact(const TruthTable& tt) {
  Cover cover = coverFromPrimes(tt, primeImplicants(tt));
  TAUHLS_ASSERT(implements(cover, tt), "QM produced a non-implementing cover");
  return cover;
}

namespace {

// --- cube expand -------------------------------------------------------------
//
// The expand works on the spec's cubes: its onset and offset are unions of
// cubes, and nothing ever enumerates the 2^numVars rows.

/// The lowest minterm of region `r` that lies in an `on` cube and in no
/// `cover` cube, or none.  Splits the most-significant variable first: a
/// free variable no remaining cube has a literal on is 0 in the lowest
/// minterm (the set is symmetric in it), so the split takes the highest
/// variable some cube does constrain, and searches its 0 half first.
std::optional<std::uint64_t> lowestUncovered(const Cube& r,
                                             const std::vector<Cube>& on,
                                             const std::vector<Cube>& cover) {
  std::vector<Cube> coverIn;
  std::uint64_t constrained = 0;
  for (const Cube& c : cover) {
    if (!c.intersects(r)) continue;
    if (c.contains(r)) return std::nullopt;
    coverIn.push_back(c);
    constrained |= c.careMask();
  }
  std::vector<Cube> onIn;
  for (const Cube& o : on) {
    if (!o.intersects(r)) continue;
    const Cube part = Cube::fromMasks(r.numVars(), o.careMask() | r.careMask(),
                                      o.valueMask() | r.valueMask());
    if (std::any_of(coverIn.begin(), coverIn.end(),
                    [&](const Cube& c) { return c.contains(part); })) {
      continue;
    }
    onIn.push_back(o);
    constrained |= o.careMask();
  }
  if (onIn.empty()) return std::nullopt;
  if (coverIn.empty()) {
    // Each o ∩ r is uncovered; its lowest minterm clears every free variable.
    std::uint64_t lowest = ~std::uint64_t{0};
    for (const Cube& o : onIn) {
      lowest = std::min(lowest, o.valueMask() | r.valueMask());
    }
    return lowest;
  }
  // A cover cube that meets r without holding it constrains a free variable
  // of r, so there is one to split on.
  constrained &= ~r.careMask();
  TAUHLS_ASSERT(constrained != 0, "cube search found no variable to split");
  const int v = 63 - std::countl_zero(constrained);
  Cube half = r;
  half.setLiteral(v, false);
  if (auto m = lowestUncovered(half, onIn, coverIn)) return m;
  half.setLiteral(v, true);
  return lowestUncovered(half, onIn, coverIn);
}

}  // namespace

TruthTable CubeSpec::table() const {
  TruthTable tt(numVars, Ternary::DontCare);
  const auto paint = [&](const std::vector<Cube>& cubes, Ternary t) {
    for (const Cube& c : cubes) {
      // Every subset of the free variables, from the empty one up.
      const std::uint64_t free = (tt.numRows() - 1) & ~c.careMask();
      std::uint64_t sub = 0;
      do {
        tt.set(c.valueMask() | sub, t);
        sub = (sub - free) & free;
      } while (sub != 0);
    }
  };
  paint(on, Ternary::One);
  paint(off, Ternary::Zero);
  return tt;
}

std::size_t CubeSpec::Hash::operator()(const CubeSpec& spec) const {
  std::size_t h = static_cast<std::size_t>(spec.numVars);
  const auto mix = [&h](std::uint64_t x) {
    h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  for (const auto* list : {&spec.on, &spec.off}) {
    mix(list->size());
    for (const Cube& c : *list) {
      mix(c.careMask());
      mix(c.valueMask());
    }
  }
  return h;
}

Cover minimizeExpand(const CubeSpec& spec) {
  const int vars = spec.numVars;
  std::vector<Cube> on = spec.on;
  Cover result(vars);
  // conflict[i]: the literals of the cube being expanded that contradict
  // spec.off[i].  The cube meets off[i] exactly when that set is empty, so
  // dropping literal v reaches the offset exactly when some set is {v}.
  std::vector<std::uint64_t> conflict(spec.off.size());
  const Cube all = Cube::full(vars);
  while (const auto row = lowestUncovered(all, on, result.cubes())) {
    Cube cube = Cube::minterm(vars, *row);
    for (std::size_t i = 0; i < spec.off.size(); ++i) {
      conflict[i] = (spec.off[i].valueMask() ^ *row) & spec.off[i].careMask();
    }
    // Expand: drop literals one by one while staying off the offset.
    for (int v = 0; v < vars; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (std::find(conflict.begin(), conflict.end(), bit) != conflict.end()) {
        continue;
      }
      cube.dropLiteral(v);
      for (std::uint64_t& c : conflict) c &= ~bit;
    }
    result.add(cube);
    std::erase_if(on, [&](const Cube& o) { return cube.contains(o); });
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, spec),
                "expand produced a non-implementing cover");
  return result;
}

Cover minimizeExpandReference(const TruthTable& tt) {
  const std::vector<std::uint64_t> offset = tt.offset();
  const std::vector<std::uint64_t> onset = tt.onset();
  Cover result(tt.numVars());

  auto hitsOffset = [&offset](const Cube& c) {
    for (std::uint64_t r : offset) {
      if (c.covers(r)) return true;
    }
    return false;
  };

  std::unordered_set<std::uint64_t> covered;
  for (std::uint64_t row : onset) {
    if (covered.contains(row)) continue;
    Cube cube = Cube::minterm(tt.numVars(), row);
    // Expand: drop literals one by one while staying off the offset.
    for (int v = 0; v < tt.numVars(); ++v) {
      Cube trial = cube;
      trial.dropLiteral(v);
      if (!hitsOffset(trial)) cube = trial;
    }
    result.add(cube);
    for (std::uint64_t m : onset) {
      if (cube.covers(m)) covered.insert(m);
    }
  }
  result.removeContained();
  TAUHLS_ASSERT(implements(result, tt), "expand produced a non-implementing cover");
  return result;
}

namespace {

/// QM's cost is driven by the onset+dc minterm count; when don't-cares
/// dominate (e.g. sparse one-hot encodings) the heuristic is far cheaper and
/// loses almost nothing.
bool useExact(const TruthTable& tt) {
  return tt.numVars() <= 14 && tt.numRows() - tt.offset().size() <= 4096;
}

}  // namespace

Cover minimize(const CubeSpec& spec) {
  if (spec.numVars <= 14) {
    const TruthTable tt = spec.table();
    if (useExact(tt)) return minimizeExact(tt);
  }
  return minimizeExpand(spec);
}

Cover minimizeReference(const TruthTable& tt) {
  if (!useExact(tt)) return minimizeExpandReference(tt);
  Cover cover = coverFromPrimes(tt, primeImplicantsReference(tt));
  TAUHLS_ASSERT(implements(cover, tt), "QM produced a non-implementing cover");
  return cover;
}

bool implements(const Cover& cover, const TruthTable& spec) {
  TAUHLS_CHECK(cover.numVars() == spec.numVars(),
               "cover/spec variable count mismatch");
  for (std::uint64_t r = 0; r < spec.numRows(); ++r) {
    const Ternary want = spec.get(r);
    if (want == Ternary::DontCare) continue;
    if (cover.evaluate(r) != (want == Ternary::One)) return false;
  }
  return true;
}

bool implements(const Cover& cover, const CubeSpec& spec) {
  TAUHLS_CHECK(cover.numVars() == spec.numVars,
               "cover/spec variable count mismatch");
  for (const Cube& off : spec.off) {
    for (const Cube& c : cover.cubes()) {
      if (c.intersects(off)) return false;
    }
  }
  return !lowestUncovered(Cube::full(spec.numVars), spec.on, cover.cubes());
}

}  // namespace tauhls::logic

// Persistent artifact store (core/store.hpp) + artifact codecs
// (core/serialize.hpp): round-trips for every artifact kind, cross-process
// cache reuse, corruption fallback, LRU bounds, gc, and concurrency.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "core/store.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/kiss.hpp"
#include "rtl/verilog.hpp"
#include "synth/extract.hpp"
#include "verify/diagnostic.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls {
namespace {

namespace fs = std::filesystem;
using namespace tauhls::core;

/// Fresh per-test store directory under the gtest temp root.
fs::path freshDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("tauhls_store_" + name);
  fs::remove_all(dir);
  return dir;
}

/// All artifact ids, in enum order.
std::vector<Artifact> allArtifacts() {
  std::vector<Artifact> all;
  for (int i = 0; i < kNumArtifacts; ++i) all.push_back(static_cast<Artifact>(i));
  return all;
}

/// A pipeline with every artifact materialized (cent-fsm + demand-only
/// passes included), over the first paper benchmark.
std::unique_ptr<FlowPipeline> materializeEverything(
    const dfg::Dfg& graph, const sched::Allocation& alloc,
    std::shared_ptr<ArtifactCache> cache = nullptr) {
  FlowConfig cfg;
  cfg.allocation = alloc;
  cfg.buildCentFsm = true;
  auto pipe = std::make_unique<FlowPipeline>(graph, cfg, std::move(cache));
  pipe->run();
  pipe->require({Artifact::Rtl, Artifact::Equivalence, Artifact::Timing,
                 Artifact::SymbolicCheck, Artifact::XCheck});
  return pipe;
}

TEST(Serialize, RoundTripsEveryArtifactKind) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  auto cache = std::make_shared<ArtifactCache>();
  auto pipe = materializeEverything(b.graph, b.allocation, cache);

  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    ASSERT_TRUE(pipe->has(a));
    // Rebox the typed artifact the way the pipeline stores it
    // (shared_ptr<const T> inside std::any) so encodeArtifact accepts it.
    std::any slotValue;
    switch (a) {
      case Artifact::Schedule:
        slotValue = std::make_shared<const sched::ScheduledDfg>(
            pipe->get<sched::ScheduledDfg>(a));
        break;
      case Artifact::RawDistributed:
      case Artifact::Distributed:
        slotValue = std::make_shared<const fsm::DistributedControlUnit>(
            pipe->get<fsm::DistributedControlUnit>(a));
        break;
      case Artifact::SignalStats:
        slotValue = std::make_shared<const fsm::SignalOptStats>(
            pipe->get<fsm::SignalOptStats>(a));
        break;
      case Artifact::CentSync:
      case Artifact::CentFsm:
        slotValue = std::make_shared<const fsm::Fsm>(pipe->get<fsm::Fsm>(a));
        break;
      case Artifact::Latency:
        slotValue = std::make_shared<const sim::LatencyComparison>(
            pipe->get<sim::LatencyComparison>(a));
        break;
      case Artifact::Diagnostics:
      case Artifact::Timing:
        slotValue = std::make_shared<const verify::Report>(
            pipe->get<verify::Report>(a));
        break;
      case Artifact::DistArea:
        slotValue = std::make_shared<const synth::DistributedAreaReport>(
            pipe->get<synth::DistributedAreaReport>(a));
        break;
      case Artifact::CentSyncArea:
      case Artifact::CentFsmArea:
        slotValue = std::make_shared<const synth::AreaRow>(
            pipe->get<synth::AreaRow>(a));
        break;
      case Artifact::Rtl:
        slotValue =
            std::make_shared<const std::string>(pipe->get<std::string>(a));
        break;
      case Artifact::Equivalence:
        slotValue = std::make_shared<const verify::EquivalenceArtifact>(
            pipe->get<verify::EquivalenceArtifact>(a));
        break;
      case Artifact::SymbolicCheck:
        slotValue = std::make_shared<const verify::SymbolicArtifact>(
            pipe->get<verify::SymbolicArtifact>(a));
        break;
      case Artifact::XCheck:
        slotValue = std::make_shared<const verify::XCheckArtifact>(
            pipe->get<verify::XCheckArtifact>(a));
        break;
      case Artifact::Synth:
      case Artifact::SynthEncoded:
        slotValue = std::make_shared<const synth::SynthesizedControllers>(
            pipe->get<synth::SynthesizedControllers>(a));
        break;
    }

    const std::vector<std::uint8_t> bytes = encodeArtifact(a, slotValue);
    ASSERT_FALSE(bytes.empty());
    const std::any decoded = decodeArtifact(a, bytes.data(), bytes.size());
    // encode(decode(encode(x))) == encode(x): the codec is deterministic, so
    // byte equality of re-encodings is structural equality of the values.
    EXPECT_EQ(encodeArtifact(a, decoded), bytes);
  }

  // Targeted semantic spot-checks on the two richest kinds.
  {
    const auto& dcu = pipe->get<fsm::DistributedControlUnit>(Artifact::Distributed);
    const auto bytes = encodeArtifact(
        Artifact::Distributed,
        std::any(std::make_shared<const fsm::DistributedControlUnit>(dcu)));
    const auto decoded =
        decodeArtifact(Artifact::Distributed, bytes.data(), bytes.size());
    const auto& back =
        **std::any_cast<std::shared_ptr<const fsm::DistributedControlUnit>>(
            &decoded);
    EXPECT_EQ(rtl::emitPackage(dcu, "rt"), rtl::emitPackage(back, "rt"));
  }
  {
    const auto& machine = pipe->get<fsm::Fsm>(Artifact::CentSync);
    const auto bytes = encodeArtifact(
        Artifact::CentSync, std::any(std::make_shared<const fsm::Fsm>(machine)));
    const auto decoded =
        decodeArtifact(Artifact::CentSync, bytes.data(), bytes.size());
    const auto& back = **std::any_cast<std::shared_ptr<const fsm::Fsm>>(&decoded);
    EXPECT_EQ(fsm::toKiss2(machine), fsm::toKiss2(back));
    fsm::validateFsm(back);
  }
}

// The synthesized-controllers codec under both encodings: byte-identical
// re-encoding and cover-for-cover equality.
TEST(Serialize, SynthRoundTripsUnderBothEncodings) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.back();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.encoding = synth::EncodingStyle::OneHot;
  FlowPipeline pipe(b.graph, cfg);
  for (const Artifact a : {Artifact::Synth, Artifact::SynthEncoded}) {
    SCOPED_TRACE(artifactName(a));
    const auto& syn = pipe.get<synth::SynthesizedControllers>(a);
    ASSERT_FALSE(syn.controllers.empty());
    const auto bytes = encodeArtifact(
        a,
        std::any(std::make_shared<const synth::SynthesizedControllers>(syn)));
    const auto decoded = decodeArtifact(a, bytes.data(), bytes.size());
    EXPECT_EQ(encodeArtifact(a, decoded), bytes);
    const auto& back =
        **std::any_cast<std::shared_ptr<const synth::SynthesizedControllers>>(
            &decoded);
    EXPECT_EQ(back.style, syn.style);
    ASSERT_EQ(back.controllers.size(), syn.controllers.size());
    for (std::size_t i = 0; i < syn.controllers.size(); ++i) {
      const synth::SynthesizedFsm& mine = syn.controllers[i];
      const synth::SynthesizedFsm& theirs = back.controllers[i];
      EXPECT_EQ(mine.name, theirs.name);
      EXPECT_EQ(mine.totalLiterals(), theirs.totalLiterals());
      for (std::size_t f = 0; f < mine.nextStateLogic.size(); ++f) {
        EXPECT_EQ(mine.nextStateLogic[f].cubes(),
                  theirs.nextStateLogic[f].cubes());
      }
      for (std::size_t f = 0; f < mine.outputLogic.size(); ++f) {
        EXPECT_EQ(mine.outputLogic[f].cubes(), theirs.outputLogic[f].cubes());
      }
    }
  }
  EXPECT_EQ(pipe.get<synth::SynthesizedControllers>(Artifact::Synth).style,
            synth::EncodingStyle::Binary);
  EXPECT_EQ(
      pipe.get<synth::SynthesizedControllers>(Artifact::SynthEncoded).style,
      synth::EncodingStyle::OneHot);

  // A cover whose arity disagrees with its machine is rejected.
  synth::SynthesizedControllers bad =
      pipe.get<synth::SynthesizedControllers>(Artifact::Synth);
  logic::Cover& cover = bad.controllers.front().outputLogic.front();
  logic::Cover widened(cover.numVars() + 1);
  widened.add(logic::Cube::minterm(cover.numVars() + 1, 0));
  cover = widened;
  const auto badBytes = encodeArtifact(
      Artifact::Synth,
      std::any(std::make_shared<const synth::SynthesizedControllers>(bad)));
  EXPECT_THROW(
      (void)decodeArtifact(Artifact::Synth, badBytes.data(), badBytes.size()),
      Error);
}

TEST(Serialize, RejectsGarbageWithoutCrashing) {
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 37));
  }
  for (Artifact a : allArtifacts()) {
    SCOPED_TRACE(artifactName(a));
    try {
      (void)decodeArtifact(a, garbage.data(), garbage.size());
      // Some kinds may legitimately decode 64 arbitrary bytes; the contract
      // is only "no crash, no UB", which reaching this line satisfies.
    } catch (const Error&) {
      // Expected for nearly all kinds.
    }
  }
  // Truncation of a valid blob must throw, not crash, at every length.
  const auto suite = dfg::paperTable2Suite();
  auto pipe = materializeEverything(suite.front().graph, suite.front().allocation);
  const auto bytes = encodeArtifact(
      Artifact::Schedule, std::any(std::make_shared<const sched::ScheduledDfg>(
                              pipe->get<sched::ScheduledDfg>(Artifact::Schedule))));
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_THROW((void)decodeArtifact(Artifact::Schedule, bytes.data(), len),
                 Error);
  }
}

/// The artifact `a` of `pipe`, boxed the way the pipeline's slots hold it.
template <typename T>
std::any reboxed(FlowPipeline& pipe, Artifact a) {
  return std::make_shared<const T>(pipe.get<T>(a));
}

std::any slotValueOf(FlowPipeline& pipe, Artifact a) {
  switch (a) {
    case Artifact::Schedule: return reboxed<sched::ScheduledDfg>(pipe, a);
    case Artifact::RawDistributed:
    case Artifact::Distributed:
      return reboxed<fsm::DistributedControlUnit>(pipe, a);
    case Artifact::SignalStats: return reboxed<fsm::SignalOptStats>(pipe, a);
    case Artifact::CentSync:
    case Artifact::CentFsm: return reboxed<fsm::Fsm>(pipe, a);
    case Artifact::Latency: return reboxed<sim::LatencyComparison>(pipe, a);
    case Artifact::Diagnostics:
    case Artifact::Timing: return reboxed<verify::Report>(pipe, a);
    case Artifact::DistArea:
      return reboxed<synth::DistributedAreaReport>(pipe, a);
    case Artifact::CentSyncArea:
    case Artifact::CentFsmArea: return reboxed<synth::AreaRow>(pipe, a);
    case Artifact::Rtl: return reboxed<std::string>(pipe, a);
    case Artifact::Equivalence:
      return reboxed<verify::EquivalenceArtifact>(pipe, a);
    case Artifact::SymbolicCheck:
      return reboxed<verify::SymbolicArtifact>(pipe, a);
    case Artifact::XCheck: return reboxed<verify::XCheckArtifact>(pipe, a);
    case Artifact::Synth:
    case Artifact::SynthEncoded:
      return reboxed<synth::SynthesizedControllers>(pipe, a);
  }
  return {};
}

// The wire format itself, pinned: the common::Hasher digest of every kind's
// encodeArtifact bytes on two designs.  Round-trip tests cannot see a layout
// edit made symmetrically on both codec sides; this one fails on it, so a
// layout change must come with a kArtifactCodecVersion bump, and only then
// are these digests re-recorded.
TEST(Serialize, BlobDigestsArePinnedForThisCodecVersion) {
  ASSERT_EQ(kArtifactCodecVersion, 6u)
      << "re-record the digests below for the new codec version";
  const auto suite = dfg::paperTable2Suite();
  const auto diff =
      std::find_if(suite.begin(), suite.end(),
                   [](const auto& b) { return b.name == "Diff."; });
  ASSERT_NE(diff, suite.end());
  dfg::RandomDfgSpec layeredSpec;
  layeredSpec.seed = 3;
  layeredSpec.numLayers = 3;
  layeredSpec.layerWidth = 3;
  const dfg::Dfg layered = dfg::randomDfg(layeredSpec);
  const sched::Allocation layeredAlloc = {{dfg::ResourceClass::Multiplier, 2},
                                          {dfg::ResourceClass::Adder, 1},
                                          {dfg::ResourceClass::Subtractor, 1}};

  std::map<std::string, std::string> actual;
  for (const auto& [design, graph, alloc] :
       {std::tuple{"diffeq", &diff->graph, &diff->allocation},
        std::tuple{"layered", &layered, &layeredAlloc}}) {
    for (const synth::EncodingStyle style :
         {synth::EncodingStyle::Binary, synth::EncodingStyle::OneHot}) {
      const bool binary = style == synth::EncodingStyle::Binary;
      FlowConfig cfg;
      cfg.allocation = *alloc;
      cfg.encoding = style;
      cfg.buildCentFsm = true;
      FlowPipeline pipe(*graph, cfg);
      // Every kind under the default encoding; the encoding-dependent ones
      // under one-hot as well.
      const std::vector<Artifact> kinds =
          binary ? allArtifacts()
                 : std::vector<Artifact>{Artifact::Synth,
                                         Artifact::SynthEncoded,
                                         Artifact::XCheck};
      for (const Artifact a : kinds) {
        const std::vector<std::uint8_t> bytes =
            encodeArtifact(a, slotValueOf(pipe, a));
        actual[std::string(design) + (binary ? "/binary/" : "/onehot/") +
               artifactName(a)] =
            common::Hasher().bytes(bytes.data(), bytes.size()).digest().toHex();
      }
    }
  }

  const std::map<std::string, std::string> golden = {
      {"diffeq/binary/area-cent-fsm", "1335d0c275c8987baf5a45d544d045cc"},
      {"diffeq/binary/area-cent-sync", "997222072f0471a4e49f460081def07c"},
      {"diffeq/binary/area-dist", "fe350446262d0463317637ca0b908c5b"},
      {"diffeq/binary/cent-fsm", "c7d45c4c6c6078e4c8869613004d1d89"},
      {"diffeq/binary/cent-sync", "a3446349dca16edc4b1a88e559a72b45"},
      {"diffeq/binary/diagnostics", "9f2bd05db9df3f602e840077c2761006"},
      {"diffeq/binary/distributed", "8c511b6c579f971b3c7abf10bffac4c7"},
      {"diffeq/binary/equivalence", "393db2ae62db4c166e40f93c1938b36b"},
      {"diffeq/binary/latency", "36e541145a4edf1b06902199fbdd265d"},
      {"diffeq/binary/raw-distributed", "db54432247ffc2773d3cc5549bfb1c1f"},
      {"diffeq/binary/rtl", "a54c1aa7359a125292ac27aded7348ed"},
      {"diffeq/binary/schedule", "618cab8fe64ee1d4f61b62039c6e968a"},
      {"diffeq/binary/signal-stats", "647e47fc3528c78bb19e2f76bf490abf"},
      {"diffeq/binary/symbolic-check", "6e23338ac168d21efba4d08264da359a"},
      {"diffeq/binary/synth", "8d0c51396c750429236f6a5aa7ba524c"},
      {"diffeq/binary/synth-encoded", "8d0c51396c750429236f6a5aa7ba524c"},
      {"diffeq/binary/timing", "b39e4740e9fb6dc9e65fe9186fd16aea"},
      {"diffeq/binary/xcheck", "fc567baabdffc5dedee5985362cf414c"},
      {"diffeq/onehot/synth", "8d0c51396c750429236f6a5aa7ba524c"},
      {"diffeq/onehot/synth-encoded", "823ab612eec6244d1d7ae3efde5061e6"},
      {"diffeq/onehot/xcheck", "e4a5d036c84df5e5f1b6698cb8eb4a48"},
      {"layered/binary/area-cent-fsm", "1e507bd34d56a75d3f6e11a48c0ebe43"},
      {"layered/binary/area-cent-sync", "412e9e550c549cf3c20d12593563745d"},
      {"layered/binary/area-dist", "9bc11c0c3417811f640ac16debc6b96a"},
      {"layered/binary/cent-fsm", "43539d70607cfadb1cf5d5d090d3b43a"},
      {"layered/binary/cent-sync", "929222e2c8876a99d194cd2e998e5f23"},
      {"layered/binary/diagnostics", "9f2bd05db9df3f602e840077c2761006"},
      {"layered/binary/distributed", "0761b0cb4616f5b01b5e3c73218a8ffb"},
      {"layered/binary/equivalence", "1a966bdfa6c1d91645a4eae3f892ea9c"},
      {"layered/binary/latency", "e4829068628ab2be3c209eceb69c1d40"},
      {"layered/binary/raw-distributed", "57dcc69e2262a6499af934a9ef16cd65"},
      {"layered/binary/rtl", "ae57f9947d67920aebc962811bab785b"},
      {"layered/binary/schedule", "f5fb2a6ecb4a921f0aadf8fd0e10ac8c"},
      {"layered/binary/signal-stats", "0a8211a478b1bdd76d06e7f4e4073ac8"},
      {"layered/binary/symbolic-check", "b3f2f7ddb49667bc2bc0d5dea52e2769"},
      {"layered/binary/synth", "c98cf04b19ebf54624db33d959883c30"},
      {"layered/binary/synth-encoded", "c98cf04b19ebf54624db33d959883c30"},
      {"layered/binary/timing", "24670be04a881934d182eb0814dbac07"},
      {"layered/binary/xcheck", "38fe26f968df10d3a3c4cbd20c41d3b3"},
      {"layered/onehot/synth", "c98cf04b19ebf54624db33d959883c30"},
      {"layered/onehot/synth-encoded", "e3e0bd6d09eaf5e7c14186bdf56ad068"},
      {"layered/onehot/xcheck", "d3d13fb716b12f5f847696b9df4363d2"},
  };
  for (const auto& [name, digest] : actual) {
    const auto it = golden.find(name);
    EXPECT_TRUE(it != golden.end() && it->second == digest)
        << "{\"" << name << "\", \"" << digest << "\"},";
  }
  EXPECT_EQ(golden.size(), actual.size());
}

// The encoder writes each map key once; a blob that repeats one is corrupt,
// and decoding rejects it rather than letting the later entry win.
TEST(Serialize, RepeatedMapKeysAreRejected) {
  verify::EquivalenceArtifact art;
  art.stats.ruleCost["EQV001"].queries = 3;
  const std::vector<std::uint8_t> bytes = encodeArtifact(
      Artifact::Equivalence,
      std::any(std::make_shared<const verify::EquivalenceArtifact>(art)));
  EXPECT_NO_THROW(
      (void)decodeArtifact(Artifact::Equivalence, bytes.data(), bytes.size()));

  // The blob ends with the u32 entry count and the one entry: the key
  // (u64 length + "EQV001") and the seven u64 counters.
  const std::size_t entryBytes = 8 + 6 + 7 * 8;
  ASSERT_GT(bytes.size(), entryBytes + 4);
  std::vector<std::uint8_t> repeated = bytes;
  repeated[bytes.size() - entryBytes - 4] = 2;
  repeated.insert(repeated.end(), bytes.end() - entryBytes, bytes.end());
  EXPECT_THROW((void)decodeArtifact(Artifact::Equivalence, repeated.data(),
                                    repeated.size()),
               Error);
}

TEST(Store, PutLoadRoundTripAndPersistence) {
  const fs::path dir = freshDir("roundtrip");
  const common::Fingerprint key{0x1234, 0x5678};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 255, 0, 128};
  {
    ArtifactStore store({dir, 0});
    store.put(key, 7, payload);
    EXPECT_TRUE(store.contains(key));
    const auto back = store.load(key, 7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    EXPECT_EQ(store.stats().blobs, 1u);
  }
  {
    // A second handle (fresh process in spirit) sees the same blob.
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    const auto back = store.load(key, 7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    // Wrong kind tag is a miss, and the mismatched blob is dropped.
    EXPECT_FALSE(store.load(key, 8).has_value());
    EXPECT_FALSE(store.contains(key));
    EXPECT_EQ(store.stats().corrupt, 1u);
  }
}

TEST(Store, CorruptedAndTruncatedBlobsAreMisses) {
  const fs::path dir = freshDir("corrupt");
  ArtifactStore store({dir, 0});
  const common::Fingerprint keyA{1, 1};
  const common::Fingerprint keyB{2, 2};
  const std::vector<std::uint8_t> payload(300, 42);
  store.put(keyA, 3, payload);
  store.put(keyB, 3, payload);

  // Flip one payload byte of A; truncate B to half.
  const fs::path blobA = dir / "blobs" / (keyA.toHex() + ".blob");
  const fs::path blobB = dir / "blobs" / (keyB.toHex() + ".blob");
  {
    std::fstream f(blobA, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x7f');
  }
  fs::resize_file(blobB, fs::file_size(blobB) / 2);

  EXPECT_FALSE(store.load(keyA, 3).has_value());
  EXPECT_FALSE(store.load(keyB, 3).has_value());
  EXPECT_EQ(store.stats().corrupt, 2u);
  // Both were unlinked so the next run rewrites them cleanly.
  EXPECT_FALSE(fs::exists(blobA));
  EXPECT_FALSE(fs::exists(blobB));
  // And a re-put works.
  store.put(keyA, 3, payload);
  EXPECT_TRUE(store.load(keyA, 3).has_value());
}

TEST(Store, LruSizeBoundEvictsOldestFirst) {
  const fs::path dir = freshDir("lru");
  const std::vector<std::uint8_t> payload(1000, 9);
  // Header is 40 bytes -> each blob is 1040; bound to ~3 blobs.
  ArtifactStore store({dir, 3 * 1040 + 100});
  const common::Fingerprint k1{1, 0}, k2{2, 0}, k3{3, 0}, k4{4, 0};
  store.put(k1, 0, payload);
  store.put(k2, 0, payload);
  store.put(k3, 0, payload);
  // Touch k1 so k2 becomes the LRU entry.
  EXPECT_TRUE(store.load(k1, 0).has_value());
  store.put(k4, 0, payload);
  EXPECT_TRUE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));  // evicted (least recently used)
  EXPECT_TRUE(store.contains(k3));
  EXPECT_TRUE(store.contains(k4));
  const StoreStats s = store.stats();
  EXPECT_EQ(s.evictedBlobs, 1u);
  EXPECT_LE(s.bytes, s.maxBytes);
}

TEST(Store, GcShrinksToTargetAndZeroEmpties) {
  const fs::path dir = freshDir("gc");
  const std::vector<std::uint8_t> payload(500, 1);
  {
    ArtifactStore store({dir, 0});
    for (std::uint64_t i = 1; i <= 10; ++i) {
      store.put({i, i}, 0, payload);
    }
    EXPECT_EQ(store.stats().blobs, 10u);
    const std::uint64_t evicted = store.gc(3 * (500 + 40));
    EXPECT_GT(evicted, 0u);
    EXPECT_LE(store.stats().bytes, 3u * 540u);
    EXPECT_EQ(store.stats().blobs, 3u);
  }
  {
    // gc(0) through a fresh handle (exercises the index reload too).
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 3u);
    store.gc(0);
    EXPECT_EQ(store.stats().blobs, 0u);
    EXPECT_EQ(store.stats().bytes, 0u);
  }
}

TEST(Store, IndexIsAdvisoryAndRebuilds) {
  const fs::path dir = freshDir("index");
  const common::Fingerprint key{77, 88};
  const std::vector<std::uint8_t> payload(64, 7);
  {
    ArtifactStore store({dir, 0});
    store.put(key, 1, payload);
  }
  // Corrupt the index outright; the store must rescan blobs/ and carry on.
  {
    std::ofstream out(dir / "index.txt", std::ios::trunc);
    out << "not an index at all\n";
  }
  {
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    EXPECT_EQ(store.load(key, 1).value(), payload);
  }
  // Remove it entirely; same outcome.
  fs::remove(dir / "index.txt");
  {
    ArtifactStore store({dir, 0});
    EXPECT_EQ(store.stats().blobs, 1u);
    EXPECT_EQ(store.load(key, 1).value(), payload);
  }
}

TEST(Store, ConcurrentWritersAndReaders) {
  const fs::path dir = freshDir("concurrent");
  ArtifactStore store({dir, 0});
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        // Half the keys are shared across all threads (write races on one
        // path), half are private.
        const std::uint64_t hi = (i % 2 == 0) ? 0xABC : 0x1000 + static_cast<std::uint64_t>(t);
        const common::Fingerprint key{hi, static_cast<std::uint64_t>(i)};
        std::vector<std::uint8_t> payload(128, static_cast<std::uint8_t>(i));
        store.put(key, 2, payload);
        const auto back = store.load(key, 2);
        ASSERT_TRUE(back.has_value());
        ASSERT_EQ(*back, payload);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.stats().corrupt, 0u);
  // Shared keys dedup: 6 shared + 8*6 private.
  EXPECT_EQ(store.stats().blobs, 6u + 8u * 6u);
}

TEST(Store, CrossProcessPipelineReuseIsBitIdentical) {
  const fs::path dir = freshDir("crossprocess");
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();

  // "Process 1": cold run against an empty store.
  auto cache1 = std::make_shared<ArtifactCache>();
  cache1->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  auto pipe1 = materializeEverything(b.graph, b.allocation, cache1);
  const CacheStats first = cache1->stats();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_GT(first.misses, 0u);

  // "Process 2": a fresh memory cache and a fresh store handle on the same
  // directory -- exactly what a second CLI invocation sees.
  auto cache2 = std::make_shared<ArtifactCache>();
  cache2->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  auto pipe2 = materializeEverything(b.graph, b.allocation, cache2);
  const CacheStats second = cache2->stats();
  EXPECT_EQ(second.misses, 0u) << "warm run recomputed a pass";
  EXPECT_EQ(second.diskHits, second.hits) << "warm run must be disk-served";
  EXPECT_EQ(second.hits, first.misses);

  // The disk-served artifacts reproduce the cold run bit for bit.
  EXPECT_EQ(pipe1->get<std::string>(Artifact::Rtl),
            pipe2->get<std::string>(Artifact::Rtl));
  EXPECT_EQ(fsm::toKiss2(pipe1->get<fsm::Fsm>(Artifact::CentSync)),
            fsm::toKiss2(pipe2->get<fsm::Fsm>(Artifact::CentSync)));
  EXPECT_EQ(
      verify::renderText(pipe1->get<verify::Report>(Artifact::Diagnostics)),
      verify::renderText(pipe2->get<verify::Report>(Artifact::Diagnostics)));
  EXPECT_EQ(
      verify::renderText(pipe1->get<verify::Report>(Artifact::Timing)),
      verify::renderText(pipe2->get<verify::Report>(Artifact::Timing)));
  // FlowResult-level identity through the public JSON rendering.
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.buildCentFsm = true;
  FlowPipeline r1(b.graph, cfg, cache1);
  FlowPipeline r2(b.graph, cfg, cache2);
  EXPECT_EQ(toJson(r1.run()), toJson(r2.run()));

  // Every warm trace event carries the disk tier.
  for (const PassTraceEvent& ev : pipe2->traceEvents()) {
    EXPECT_EQ(ev.tier, CacheTier::Disk) << ev.pass;
    EXPECT_TRUE(ev.cacheHit);
  }
}

TEST(Store, CorruptBlobFallsBackToRecompute) {
  const fs::path dir = freshDir("fallback");
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.synthesizeArea = false;

  auto cache1 = std::make_shared<ArtifactCache>();
  cache1->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe1(b.graph, cfg, cache1);
  const FlowResult cold = pipe1.run();

  // Vandalize every blob: overwrite a byte in the middle of each file.
  for (const auto& file : fs::directory_iterator(dir / "blobs")) {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(file.path()) / 2));
    f.put('\x55');
  }

  auto cache2 = std::make_shared<ArtifactCache>();
  cache2->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe2(b.graph, cfg, cache2);
  const FlowResult warm = pipe2.run();  // must not crash
  const CacheStats stats = cache2->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(toJson(cold), toJson(warm));
  // The recompute healed the store: a third run is disk-served again.
  auto cache3 = std::make_shared<ArtifactCache>();
  cache3->attachStore(std::make_shared<ArtifactStore>(StoreOptions{dir, 0}));
  FlowPipeline pipe3(b.graph, cfg, cache3);
  pipe3.run();
  EXPECT_EQ(cache3->stats().misses, 0u);
}

TEST(Store, StoreJsonReportIsSchemaVersioned) {
  const fs::path dir = freshDir("json");
  ArtifactStore store({dir, 1 << 20});
  store.put({5, 6}, 1, std::vector<std::uint8_t>(10, 1));
  const std::string json = renderStoreJson(store.stats());
  EXPECT_NE(json.find("\"schema\":\"tauhls-store\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"blobs\":1"), std::string::npos);
  EXPECT_NE(json.find("\"maxBytes\":1048576"), std::string::npos);
}

}  // namespace
}  // namespace tauhls

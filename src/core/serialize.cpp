#include "core/serialize.hpp"

#include <bit>
#include <concepts>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "synth/extract.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::core {

namespace {

// ---------------------------------------------------------------------------
// Wire primitives.  A value's encoding follows from its C++ type alone:
// int -> i32, std::uint32_t -> u32, std::uint64_t / std::size_t -> u64,
// bool -> u8 (0 or 1), enum -> u8, double -> its IEEE-754 bits as u64, all
// little-endian; a string, vector, set or map is a u64 count followed by its
// elements.  Composite types go through `codec` (below).  The reader
// bounds-checks every access and range-checks every enum and boolean, and
// checks a decoded count against the remaining bytes before allocating.
// ---------------------------------------------------------------------------

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// Last valid enumerator and display name of every enum on the wire.
constexpr std::pair<dfg::OpKind, const char*> enumRange(dfg::OpKind) {
  return {dfg::OpKind::Neg, "OpKind"};
}
constexpr std::pair<dfg::ResourceClass, const char*> enumRange(
    dfg::ResourceClass) {
  return {dfg::ResourceClass::Logic, "ResourceClass"};
}
constexpr std::pair<verify::PropertyVerdict, const char*> enumRange(
    verify::PropertyVerdict) {
  return {verify::PropertyVerdict::Unknown, "PropertyVerdict"};
}
constexpr std::pair<synth::EncodingStyle, const char*> enumRange(
    synth::EncodingStyle) {
  return {synth::EncodingStyle::OneHot, "EncodingStyle"};
}

/// Bytes one scalar occupies on the wire.
template <Scalar T>
constexpr std::size_t wireWidth() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8, "no wire width");
    return sizeof(T);
  }
}

/// Fewest bytes one encoded T takes: bounds a decoded element count.
template <class T>
constexpr std::size_t minWireSize() {
  if constexpr (Scalar<T>) return wireWidth<T>();
  if constexpr (std::is_same_v<T, std::string>) return 8;
  return 1;
}

/// A value for a decoder to overwrite.
template <class T>
T blank() {
  if constexpr (std::is_same_v<T, fsm::Fsm>) {
    return fsm::Fsm("");
  } else if constexpr (std::is_same_v<T, logic::Cover>) {
    return logic::Cover(0);
  } else {
    return T{};
  }
}

class Writer {
 public:
  /// Append each value's encoding, in argument order.
  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }
  /// A map whose count is on the wire as u32 instead of u64.
  template <class K, class V>
  void u32Counted(const std::map<K, V>& m) {
    put(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) (*this)(k, v);
  }
  /// Decoder-side validation: the encoder writes whatever it is given.
  void check(bool, const char*) {}

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void fixed(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <Scalar T>
  void put(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      fixed(std::bit_cast<std::uint64_t>(v), 8);
    } else {
      fixed(static_cast<std::uint64_t>(v), wireWidth<T>());
    }
  }
  void put(const std::string& s) {
    put(std::uint64_t{s.size()});
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  template <class T>
  void put(const std::vector<T>& items) {
    put(std::uint64_t{items.size()});
    for (const T& item : items) put(item);
  }
  template <class T>
  void put(const std::set<T>& items) {
    put(std::uint64_t{items.size()});
    for (const T& item : items) put(item);
  }
  template <class K, class V>
  void put(const std::map<K, V>& m) {
    put(std::uint64_t{m.size()});
    for (const auto& [k, v] : m) (*this)(k, v);
  }
  /// Composite: its layout, or its explicit encoder.
  template <class T>
  void put(const T& v) {
    codec(*this, v);
  }

  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Decode into each value, in argument order.
  template <class... T>
  void operator()(T&... values) {
    (get(values), ...);
  }
  template <class K, class V>
  void u32Counted(std::map<K, V>& m) {
    std::uint32_t n = 0;
    get(n);
    getEntries(m, bounded(n, minWireSize<K>() + minWireSize<V>()));
  }
  void check(bool ok, const char* what) {
    TAUHLS_CHECK(ok, std::string("artifact blob: ") + what);
  }
  /// A u64 element count for a container decoded element by element,
  /// bounded by the remaining bytes (`minBytesPerElement` >= 1).
  std::size_t count(std::size_t minBytesPerElement = 1) {
    std::uint64_t n = 0;
    get(n);
    return bounded(n, minBytesPerElement);
  }
  void expectEnd() { check(pos_ == size_, "trailing bytes after payload"); }

 private:
  void need(std::uint64_t n) { check(n <= size_ - pos_, "truncated"); }
  std::size_t bounded(std::uint64_t n, std::size_t minBytesPerElement) {
    check(n <= (size_ - pos_) / minBytesPerElement,
          "container length exceeds blob size");
    return static_cast<std::size_t>(n);
  }
  std::uint64_t fixed(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  template <Scalar T>
  void get(T& v) {
    const std::uint64_t raw = fixed(wireWidth<T>());
    if constexpr (std::is_same_v<T, bool>) {
      check(raw <= 1, "invalid boolean byte");
      v = raw != 0;
    } else if constexpr (std::is_enum_v<T>) {
      const auto [last, name] = enumRange(T{});
      TAUHLS_CHECK(raw <= static_cast<std::uint64_t>(last),
                   std::string("artifact blob: out-of-range ") + name);
      v = static_cast<T>(raw);
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::bit_cast<T>(raw);
    } else {
      v = static_cast<T>(static_cast<std::make_unsigned_t<T>>(raw));
    }
  }
  void get(std::string& s) {
    std::uint64_t n = 0;
    get(n);
    need(n);
    s.assign(reinterpret_cast<const char*>(data_ + pos_),
             static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
  }
  template <class T>
  void get(std::vector<T>& items) {
    const std::size_t n = count(minWireSize<T>());
    items.clear();
    // Only scalars reserve up front: their count bound is exact, so the
    // allocation stays within the blob's size.
    if constexpr (Scalar<T>) items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) get(items.emplace_back(blank<T>()));
  }
  template <class T>
  void get(std::set<T>& items) {
    const std::size_t n = count(minWireSize<T>());
    items.clear();
    for (std::size_t i = 0; i < n; ++i) {
      T item = blank<T>();
      get(item);
      check(items.insert(std::move(item)).second, "duplicate set element");
    }
  }
  template <class K, class V>
  void get(std::map<K, V>& m) {
    getEntries(m, count(minWireSize<K>() + minWireSize<V>()));
  }
  template <class K, class V>
  void getEntries(std::map<K, V>& m, std::size_t n) {
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      K key = blank<K>();
      get(key);
      const auto [it, fresh] = m.try_emplace(std::move(key), blank<V>());
      check(fresh, "duplicate map key");
      get(it->second);
    }
  }
  /// Composite: its layout, or its explicit decoder.
  template <class T>
  void get(T& v) {
    codec(*this, v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Layouts.  A plain-data type's byte layout is written once, as a template
// over the direction: IO is Writer (with V = const T) or Reader (V = T), and
// `io(a, b, ...)` encodes or decodes the fields in that order.  The types
// rebuilt through a validating API (Dfg, Binding, ResourceLibrary, Guard,
// Fsm, Report, Cover) keep an explicit encoder/decoder pair instead, so every
// class invariant is re-checked on the way in.
// ---------------------------------------------------------------------------

template <class V, class T>
concept Is = std::same_as<std::remove_const_t<V>, T>;

template <class IO, Is<dfg::Node> V>
void codec(IO& io, V& n) {
  io(n.kind, n.name, n.operands);
}

template <class IO, Is<dfg::ScheduleArc> V>
void codec(IO& io, V& arc) {
  io(arc.from, arc.to);
}

void codec(Writer& w, const dfg::Dfg& g) {
  w(g.name(), g.numNodes());
  for (dfg::NodeId id = 0; id < g.numNodes(); ++id) w(g.node(id));
  w(g.scheduleArcs(), g.stateEdges(), g.outputs());
}

void codec(Reader& r, dfg::Dfg& out) {
  std::string name;
  std::vector<dfg::Node> nodes;
  std::vector<dfg::ScheduleArc> arcs, stateEdges;
  std::vector<dfg::NodeId> outputs;
  r(name, nodes, arcs, stateEdges, outputs);
  dfg::Dfg g(name);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const dfg::Node& n = nodes[i];
    const dfg::NodeId id =
        n.kind == dfg::OpKind::Input
            ? g.addInput(n.name)
            : g.addOp(n.kind, std::span<const dfg::NodeId>(n.operands), n.name);
    r.check(id == static_cast<dfg::NodeId>(i), "non-dense DFG node ids");
  }
  for (const dfg::ScheduleArc& arc : arcs) g.addScheduleArc(arc.from, arc.to);
  for (const dfg::ScheduleArc& e : stateEdges) g.addStateEdge(e.from, e.to);
  for (dfg::NodeId o : outputs) g.markOutput(o);
  g.validate();
  out = std::move(g);
}

void codec(Writer& w, const sched::Binding& b) {
  w(b.numUnits());
  for (int u = 0; u < static_cast<int>(b.numUnits()); ++u) {
    w(b.unit(u).cls, b.unit(u).index, b.sequenceOf(u));
  }
}

void codec(Reader& r, sched::Binding& out) {
  sched::Binding b;
  const std::size_t numUnits = r.count();
  for (std::size_t u = 0; u < numUnits; ++u) {
    dfg::ResourceClass cls{};
    int index = 0;
    std::vector<dfg::NodeId> sequence;
    r(cls, index, sequence);
    const int id = b.addUnit(cls, index);
    r.check(id == static_cast<int>(u), "non-dense binding unit ids");
    for (dfg::NodeId op : sequence) b.assign(op, id);
  }
  out = std::move(b);
}

template <class IO, Is<sched::StepSchedule> V>
void codec(IO& io, V& s) {
  io(s.numSteps, s.stepOf);
}

template <class IO, Is<sched::TaubmStep> V>
void codec(IO& io, V& step) {
  io(step.originalStep, step.split, step.ops, step.tauOps);
}

template <class IO, Is<sched::TaubmSchedule> V>
void codec(IO& io, V& t) {
  io(t.steps);
}

template <class IO, Is<tau::UnitType> V>
void codec(IO& io, V& t) {
  io(t.name, t.cls, t.telescopic, t.shortDelayNs, t.longDelayNs,
     t.sdProbability);
}

void codec(Writer& w, const tau::ResourceLibrary& lib) {
  const std::vector<dfg::ResourceClass> classes = lib.classes();
  w(classes.size());
  for (dfg::ResourceClass cls : classes) w(lib.typeFor(cls));
}

void codec(Reader& r, tau::ResourceLibrary& out) {
  std::vector<tau::UnitType> types;
  r(types);
  tau::ResourceLibrary lib;
  for (const tau::UnitType& t : types) {
    tau::validateUnitType(t);
    lib.registerType(t);
  }
  out = std::move(lib);
}

template <class IO, Is<sched::ScheduledDfg> V>
void codec(IO& io, V& s) {
  io(s.graph, s.binding, s.steps, s.taubm, s.library, s.clockNs);
}

template <class IO, Is<fsm::GuardTerm> V>
void codec(IO& io, V& term) {
  io(term.literals);
}

void codec(Writer& w, const fsm::Guard& g) { w(g.terms()); }

void codec(Reader& r, fsm::Guard& out) {
  std::vector<fsm::GuardTerm> terms;
  r(terms);
  fsm::Guard g = fsm::Guard::never();
  for (const fsm::GuardTerm& t : terms) {
    fsm::Guard term = fsm::Guard::always();
    for (const auto& [signal, positive] : t.literals) {
      term = term.conjoin(fsm::Guard::literal(signal, positive));
    }
    g = g.disjoin(term);
  }
  out = std::move(g);
}

template <class IO, Is<fsm::Transition> V>
void codec(IO& io, V& t) {
  io(t.from, t.to, t.guard, t.outputs);
}

void codec(Writer& w, const fsm::Fsm& f) {
  w(f.name(), f.numStates());
  for (int s = 0; s < static_cast<int>(f.numStates()); ++s) w(f.stateName(s));
  w(f.inputs(), f.outputs(), f.initial(), f.transitions());
}

void codec(Reader& r, fsm::Fsm& out) {
  std::string name;
  std::vector<std::string> states, inputs, outputs;
  int initial = 0;
  std::vector<fsm::Transition> transitions;
  r(name, states, inputs, outputs, initial, transitions);
  fsm::Fsm f(name);
  for (std::size_t s = 0; s < states.size(); ++s) {
    r.check(f.addState(states[s]) == static_cast<int>(s),
            "non-dense FSM state ids");
  }
  for (const std::string& in : inputs) f.addInput(in);
  for (const std::string& o : outputs) f.addOutput(o);
  if (!states.empty()) f.setInitial(initial);
  for (fsm::Transition& t : transitions) {
    f.addTransition(t.from, t.to, std::move(t.guard), std::move(t.outputs));
  }
  out = std::move(f);
}

template <class IO, Is<fsm::UnitController> V>
void codec(IO& io, V& c) {
  io(c.unitId, c.telescopic, c.fsm, c.ops, c.latchedInputs);
}

template <class IO, Is<fsm::DistributedControlUnit> V>
void codec(IO& io, V& dcu) {
  io(dcu.controllers, dcu.externalInputs, dcu.producerOf, dcu.consumersOf);
}

template <class IO, Is<fsm::SignalOptStats> V>
void codec(IO& io, V& s) {
  io(s.removedOutputs, s.keptOutputs);
}

template <class IO, Is<sim::LatencyRow> V>
void codec(IO& io, V& row) {
  io(row.bestNs, row.worstNs, row.averageNs);
}

template <class IO, Is<sim::LatencyComparison> V>
void codec(IO& io, V& l) {
  io(l.ps, l.tau, l.dist, l.enhancementPercent);
}

// The severity is not on the wire: Report::add re-resolves it from the rule
// registry, so a blob can never smuggle in a severity the registry does not
// assign -- and it throws on unknown codes, turning a corrupted code into a
// cache miss.
template <class IO, Is<verify::Diagnostic> V>
void codec(IO& io, V& d) {
  io(d.code, d.artifact, d.where, d.message);
}

void codec(Writer& w, const verify::Report& report) {
  w(report.diagnostics());
}

void codec(Reader& r, verify::Report& out) {
  std::vector<verify::Diagnostic> diagnostics;
  r(diagnostics);
  verify::Report report;
  for (const verify::Diagnostic& d : diagnostics) {
    report.add(d.code, d.artifact, d.where, d.message);
  }
  out = std::move(report);
}

template <class IO, Is<synth::AreaRow> V>
void codec(IO& io, V& row) {
  io(row.name, row.inputs, row.outputs, row.states, row.flipFlops,
     row.combArea, row.seqArea);
}

template <class IO, Is<synth::DistributedAreaReport> V>
void codec(IO& io, V& rep) {
  io(rep.perController, rep.total, rep.completionLatches);
}

template <class IO, Is<verify::RuleCost> V>
void codec(IO& io, V& c) {
  io(c.decisions, c.propagations, c.conflicts, c.learned, c.restarts,
     c.queries, c.simDischarged);
}

template <class IO, Is<verify::EquivalenceArtifact> V>
void codec(IO& io, V& art) {
  io(art.report, art.stats.controllers, art.stats.functionsCompared,
     art.stats.satConflicts);
  io.u32Counted(art.stats.ruleCost);
}

template <class IO, Is<verify::SymbolicProperty> V>
void codec(IO& io, V& p) {
  io(p.rule, p.verdict, p.depthReached, p.inductionK, p.cexLength, p.cost);
}

template <class IO, Is<verify::SymbolicArtifact> V>
void codec(IO& io, V& art) {
  io(art.report, art.stats.artifact, art.stats.controllers,
     art.stats.stateBits, art.stats.templateNodes, art.stats.invariantHolds,
     art.stats.invariantCost, art.stats.properties);
}

template <class IO, Is<verify::XpropPropertyStat> V>
void codec(IO& io, V& p) {
  io(p.artifact, p.rule, p.verdict, p.depth, p.cexCycle, p.instances,
     p.gateEvals, p.cost);
}

template <class IO, Is<verify::XCheckArtifact> V>
void codec(IO& io, V& art) {
  io(art.report, art.xprop.artifact, art.xprop.controllers,
     art.xprop.stateBits, art.xprop.latchBits, art.xprop.resetDepth,
     art.xprop.instances, art.xprop.gateEvals, art.xprop.rtlCycles,
     art.xprop.properties, art.dcs.artifact, art.dcs.controllers,
     art.dcs.functionsChecked, art.dcs.dcFunctions, art.dcs.properties);
}

// A cover is its variable count plus (care, value) mask pairs; decoding
// rebuilds every cube through the Cube/Cover API, so arity and literal
// bounds are re-validated.
void codec(Writer& w, const logic::Cover& cover) {
  w(cover.numVars(), cover.numCubes());
  for (const logic::Cube& cube : cover.cubes()) {
    w(cube.careMask(), cube.valueMask());
  }
}

void codec(Reader& r, logic::Cover& out) {
  int numVars = 0;
  r(numVars);
  r.check(numVars >= 0 && numVars <= 64, "cover variable count out of range");
  const std::uint64_t vars =
      numVars == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << numVars) - 1;
  logic::Cover cover(numVars);
  const std::size_t numCubes = r.count(16);
  for (std::size_t i = 0; i < numCubes; ++i) {
    std::uint64_t care = 0;
    std::uint64_t value = 0;
    r(care, value);
    r.check((care & ~vars) == 0 && (value & ~care) == 0,
            "cube literal outside its cover");
    logic::Cube cube = logic::Cube::full(numVars);
    for (int v = 0; v < numVars; ++v) {
      if ((care >> v) & 1) cube.setLiteral(v, ((value >> v) & 1) != 0);
    }
    cover.add(cube);
  }
  out = std::move(cover);
}

template <class IO, Is<synth::SynthesizedFsm> V>
void codec(IO& io, V& syn) {
  io(syn.name, syn.numInputs, syn.numOutputs, syn.numStates, syn.flipFlops);
  io.check(syn.numInputs >= 0 && syn.numInputs <= 64 && syn.flipFlops >= 0 &&
               syn.flipFlops <= 64 && syn.numOutputs >= 0 &&
               syn.numStates >= 0,
           "machine shape out of range");
  io(syn.nextStateLogic, syn.outputLogic);
  for (const auto* covers : {&syn.nextStateLogic, &syn.outputLogic}) {
    for (const logic::Cover& cover : *covers) {
      io.check(cover.numVars() == syn.flipFlops + syn.numInputs,
               "cover arity differs from the machine's");
    }
  }
  io.check(
      syn.nextStateLogic.size() == static_cast<std::size_t>(syn.flipFlops) &&
          syn.outputLogic.size() == static_cast<std::size_t>(syn.numOutputs),
      "cover count differs from the machine's");
}

template <class IO, Is<synth::SynthesizedControllers> V>
void codec(IO& io, V& syn) {
  io(syn.style, syn.controllers);
}

/// The one kind -> type mapping: calls `f(std::type_identity<T>{})` with the
/// artifact type documented for `kind` on the Artifact enum.
template <class F>
decltype(auto) withArtifactType(Artifact kind, F&& f) {
  switch (kind) {
    case Artifact::Schedule:
      return f(std::type_identity<sched::ScheduledDfg>{});
    case Artifact::RawDistributed:
    case Artifact::Distributed:
      return f(std::type_identity<fsm::DistributedControlUnit>{});
    case Artifact::SignalStats:
      return f(std::type_identity<fsm::SignalOptStats>{});
    case Artifact::CentSync:
    case Artifact::CentFsm:
      return f(std::type_identity<fsm::Fsm>{});
    case Artifact::Latency:
      return f(std::type_identity<sim::LatencyComparison>{});
    case Artifact::Diagnostics:
    case Artifact::Timing:
      return f(std::type_identity<verify::Report>{});
    case Artifact::DistArea:
      return f(std::type_identity<synth::DistributedAreaReport>{});
    case Artifact::CentSyncArea:
    case Artifact::CentFsmArea:
      return f(std::type_identity<synth::AreaRow>{});
    case Artifact::Rtl:
      return f(std::type_identity<std::string>{});
    case Artifact::Equivalence:
      return f(std::type_identity<verify::EquivalenceArtifact>{});
    case Artifact::SymbolicCheck:
      return f(std::type_identity<verify::SymbolicArtifact>{});
    case Artifact::XCheck:
      return f(std::type_identity<verify::XCheckArtifact>{});
    case Artifact::Synth:
    case Artifact::SynthEncoded:
      return f(std::type_identity<synth::SynthesizedControllers>{});
  }
  TAUHLS_FAIL("artifact codec: unknown artifact kind");
}

}  // namespace

std::vector<std::uint8_t> encodeArtifact(Artifact kind,
                                         const std::any& value) {
  Writer w;
  withArtifactType(kind, [&]<class T>(std::type_identity<T>) {
    const auto* ptr = std::any_cast<std::shared_ptr<const T>>(&value);
    TAUHLS_CHECK(
        ptr != nullptr && *ptr != nullptr,
        "encodeArtifact: value does not hold the kind's artifact type");
    w(**ptr);
  });
  return w.take();
}

std::any decodeArtifact(Artifact kind, const std::uint8_t* data,
                        std::size_t size) {
  Reader r(data, size);
  std::any result = withArtifactType(kind, [&]<class T>(std::type_identity<T>) {
    T value = blank<T>();
    r(value);
    return std::any(std::make_shared<const T>(std::move(value)));
  });
  r.expectEnd();
  return result;
}

}  // namespace tauhls::core

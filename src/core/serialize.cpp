#include "core/serialize.hpp"

#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "synth/extract.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/xprop_check.hpp"

namespace tauhls::core {

namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian writer/reader.  The reader bounds-checks every
// access and throws tauhls::Error on violation; nothing here can read past
// the blob or allocate an attacker-controlled amount beyond the blob size.
// ---------------------------------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    TAUHLS_CHECK(v <= 1, "artifact blob: invalid boolean byte");
    return v != 0;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Element-count prefix for a container about to be decoded element-wise;
  /// bounded by the remaining bytes so a corrupted length cannot trigger a
  /// huge up-front allocation (`minBytesPerElement` >= 1).
  std::size_t count(std::size_t minBytesPerElement = 1) {
    const std::uint64_t n = u64();
    TAUHLS_CHECK(n <= remaining() / minBytesPerElement,
                 "artifact blob: container length exceeds blob size");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return size_ - pos_; }
  void expectEnd() const {
    TAUHLS_CHECK(pos_ == size_, "artifact blob: trailing bytes after payload");
  }

 private:
  void need(std::uint64_t n) {
    TAUHLS_CHECK(n <= size_ - pos_, "artifact blob: truncated");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Per-type codecs.  Encoders walk the public read API; decoders rebuild
// through the public mutation API (so every class invariant is re-validated
// on the way in) or by direct aggregate construction for plain structs.
// ---------------------------------------------------------------------------

template <typename T>
std::uint32_t checkedEnum(std::uint32_t raw, T maxInclusive, const char* what) {
  TAUHLS_CHECK(raw <= static_cast<std::uint32_t>(maxInclusive),
               std::string("artifact blob: out-of-range ") + what);
  return raw;
}

void encodeDfg(Writer& w, const dfg::Dfg& g) {
  w.str(g.name());
  w.u64(g.numNodes());
  for (dfg::NodeId id = 0; id < g.numNodes(); ++id) {
    const dfg::Node& n = g.node(id);
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.str(n.name);
    w.u64(n.operands.size());
    for (dfg::NodeId op : n.operands) w.u32(op);
  }
  w.u64(g.scheduleArcs().size());
  for (const dfg::ScheduleArc& arc : g.scheduleArcs()) {
    w.u32(arc.from);
    w.u32(arc.to);
  }
  w.u64(g.stateEdges().size());
  for (const dfg::ScheduleArc& edge : g.stateEdges()) {
    w.u32(edge.from);
    w.u32(edge.to);
  }
  w.u64(g.outputs().size());
  for (dfg::NodeId out : g.outputs()) w.u32(out);
}

dfg::Dfg decodeDfg(Reader& r) {
  dfg::Dfg g(r.str());
  const std::size_t numNodes = r.count();
  for (std::size_t i = 0; i < numNodes; ++i) {
    const auto kind = static_cast<dfg::OpKind>(
        checkedEnum(r.u8(), dfg::OpKind::Neg, "OpKind"));
    const std::string name = r.str();
    const std::size_t numOperands = r.count(4);
    std::vector<dfg::NodeId> operands(numOperands);
    for (dfg::NodeId& op : operands) op = r.u32();
    const dfg::NodeId id =
        kind == dfg::OpKind::Input
            ? g.addInput(name)
            : g.addOp(kind, std::span<const dfg::NodeId>(operands), name);
    TAUHLS_CHECK(id == static_cast<dfg::NodeId>(i),
                 "artifact blob: non-dense DFG node ids");
  }
  const std::size_t numArcs = r.count(8);
  for (std::size_t i = 0; i < numArcs; ++i) {
    const dfg::NodeId from = r.u32();
    const dfg::NodeId to = r.u32();
    g.addScheduleArc(from, to);
  }
  const std::size_t numStateEdges = r.count(8);
  for (std::size_t i = 0; i < numStateEdges; ++i) {
    const dfg::NodeId from = r.u32();
    const dfg::NodeId to = r.u32();
    g.addStateEdge(from, to);
  }
  const std::size_t numOutputs = r.count(4);
  for (std::size_t i = 0; i < numOutputs; ++i) g.markOutput(r.u32());
  g.validate();
  return g;
}

void encodeBinding(Writer& w, const sched::Binding& b) {
  w.u64(b.numUnits());
  for (int u = 0; u < static_cast<int>(b.numUnits()); ++u) {
    const sched::UnitInstance& unit = b.unit(u);
    w.u8(static_cast<std::uint8_t>(unit.cls));
    w.i32(unit.index);
    w.u64(b.sequenceOf(u).size());
    for (dfg::NodeId op : b.sequenceOf(u)) w.u32(op);
  }
}

sched::Binding decodeBinding(Reader& r) {
  sched::Binding b;
  const std::size_t numUnits = r.count();
  for (std::size_t u = 0; u < numUnits; ++u) {
    const auto cls = static_cast<dfg::ResourceClass>(
        checkedEnum(r.u8(), dfg::ResourceClass::Logic, "ResourceClass"));
    const int index = r.i32();
    const int id = b.addUnit(cls, index);
    TAUHLS_CHECK(id == static_cast<int>(u),
                 "artifact blob: non-dense binding unit ids");
    const std::size_t seqLen = r.count(4);
    for (std::size_t i = 0; i < seqLen; ++i) b.assign(r.u32(), id);
  }
  return b;
}

void encodeSteps(Writer& w, const sched::StepSchedule& s) {
  w.i32(s.numSteps);
  w.u64(s.stepOf.size());
  for (int step : s.stepOf) w.i32(step);
}

sched::StepSchedule decodeSteps(Reader& r) {
  sched::StepSchedule s;
  s.numSteps = r.i32();
  const std::size_t n = r.count(4);
  s.stepOf.resize(n);
  for (int& step : s.stepOf) step = r.i32();
  return s;
}

void encodeTaubm(Writer& w, const sched::TaubmSchedule& t) {
  w.u64(t.steps.size());
  for (const sched::TaubmStep& step : t.steps) {
    w.i32(step.originalStep);
    w.boolean(step.split);
    w.u64(step.ops.size());
    for (dfg::NodeId op : step.ops) w.u32(op);
    w.u64(step.tauOps.size());
    for (dfg::NodeId op : step.tauOps) w.u32(op);
  }
}

sched::TaubmSchedule decodeTaubm(Reader& r) {
  sched::TaubmSchedule t;
  const std::size_t numSteps = r.count(5);
  t.steps.resize(numSteps);
  for (sched::TaubmStep& step : t.steps) {
    step.originalStep = r.i32();
    step.split = r.boolean();
    step.ops.resize(r.count(4));
    for (dfg::NodeId& op : step.ops) op = r.u32();
    step.tauOps.resize(r.count(4));
    for (dfg::NodeId& op : step.tauOps) op = r.u32();
  }
  return t;
}

void encodeLibrary(Writer& w, const tau::ResourceLibrary& lib) {
  const std::vector<dfg::ResourceClass> classes = lib.classes();
  w.u64(classes.size());
  for (dfg::ResourceClass cls : classes) {
    const tau::UnitType& t = lib.typeFor(cls);
    w.str(t.name);
    w.u8(static_cast<std::uint8_t>(t.cls));
    w.boolean(t.telescopic);
    w.f64(t.shortDelayNs);
    w.f64(t.longDelayNs);
    w.f64(t.sdProbability);
  }
}

tau::ResourceLibrary decodeLibrary(Reader& r) {
  tau::ResourceLibrary lib;
  const std::size_t numTypes = r.count();
  for (std::size_t i = 0; i < numTypes; ++i) {
    tau::UnitType t;
    t.name = r.str();
    t.cls = static_cast<dfg::ResourceClass>(
        checkedEnum(r.u8(), dfg::ResourceClass::Logic, "ResourceClass"));
    t.telescopic = r.boolean();
    t.shortDelayNs = r.f64();
    t.longDelayNs = r.f64();
    t.sdProbability = r.f64();
    tau::validateUnitType(t);
    lib.registerType(t);
  }
  return lib;
}

void encodeGuard(Writer& w, const fsm::Guard& g) {
  w.u64(g.terms().size());
  for (const fsm::GuardTerm& term : g.terms()) {
    w.u64(term.literals.size());
    for (const auto& [signal, positive] : term.literals) {
      w.str(signal);
      w.boolean(positive);
    }
  }
}

fsm::Guard decodeGuard(Reader& r) {
  const std::size_t numTerms = r.count();
  fsm::Guard g = fsm::Guard::never();
  for (std::size_t t = 0; t < numTerms; ++t) {
    const std::size_t numLiterals = r.count(2);
    fsm::Guard term = fsm::Guard::always();
    for (std::size_t l = 0; l < numLiterals; ++l) {
      const std::string signal = r.str();
      const bool positive = r.boolean();
      term = term.conjoin(fsm::Guard::literal(signal, positive));
    }
    g = g.disjoin(term);
  }
  return g;
}

void encodeFsm(Writer& w, const fsm::Fsm& f) {
  w.str(f.name());
  w.u64(f.numStates());
  for (int s = 0; s < static_cast<int>(f.numStates()); ++s) {
    w.str(f.stateName(s));
  }
  w.u64(f.inputs().size());
  for (const std::string& in : f.inputs()) w.str(in);
  w.u64(f.outputs().size());
  for (const std::string& out : f.outputs()) w.str(out);
  w.i32(f.initial());
  w.u64(f.transitions().size());
  for (const fsm::Transition& t : f.transitions()) {
    w.i32(t.from);
    w.i32(t.to);
    encodeGuard(w, t.guard);
    w.u64(t.outputs.size());
    for (const std::string& out : t.outputs) w.str(out);
  }
}

fsm::Fsm decodeFsm(Reader& r) {
  fsm::Fsm f(r.str());
  const std::size_t numStates = r.count();
  for (std::size_t s = 0; s < numStates; ++s) {
    const int id = f.addState(r.str());
    TAUHLS_CHECK(id == static_cast<int>(s),
                 "artifact blob: non-dense FSM state ids");
  }
  const std::size_t numInputs = r.count();
  for (std::size_t i = 0; i < numInputs; ++i) f.addInput(r.str());
  const std::size_t numOutputs = r.count();
  for (std::size_t i = 0; i < numOutputs; ++i) f.addOutput(r.str());
  const int initial = r.i32();
  if (numStates > 0) f.setInitial(initial);
  const std::size_t numTransitions = r.count(8);
  for (std::size_t t = 0; t < numTransitions; ++t) {
    const int from = r.i32();
    const int to = r.i32();
    fsm::Guard guard = decodeGuard(r);
    const std::size_t outCount = r.count(8);
    std::vector<std::string> outputs(outCount);
    for (std::string& out : outputs) out = r.str();
    f.addTransition(from, to, std::move(guard), std::move(outputs));
  }
  return f;
}

void encodeDcu(Writer& w, const fsm::DistributedControlUnit& dcu) {
  w.u64(dcu.controllers.size());
  for (const fsm::UnitController& c : dcu.controllers) {
    w.i32(c.unitId);
    w.boolean(c.telescopic);
    encodeFsm(w, c.fsm);
    w.u64(c.ops.size());
    for (dfg::NodeId op : c.ops) w.u32(op);
    w.u64(c.latchedInputs.size());
    for (const std::string& s : c.latchedInputs) w.str(s);
  }
  w.u64(dcu.externalInputs.size());
  for (const std::string& s : dcu.externalInputs) w.str(s);
  w.u64(dcu.producerOf.size());
  for (const auto& [signal, producer] : dcu.producerOf) {
    w.str(signal);
    w.i32(producer);
  }
  w.u64(dcu.consumersOf.size());
  for (const auto& [signal, consumers] : dcu.consumersOf) {
    w.str(signal);
    w.u64(consumers.size());
    for (int c : consumers) w.i32(c);
  }
}

fsm::DistributedControlUnit decodeDcu(Reader& r) {
  fsm::DistributedControlUnit dcu;
  const std::size_t numControllers = r.count();
  dcu.controllers.reserve(numControllers);
  for (std::size_t i = 0; i < numControllers; ++i) {
    fsm::UnitController c;
    c.unitId = r.i32();
    c.telescopic = r.boolean();
    c.fsm = decodeFsm(r);
    c.ops.resize(r.count(4));
    for (dfg::NodeId& op : c.ops) op = r.u32();
    c.latchedInputs.resize(r.count(8));
    for (std::string& s : c.latchedInputs) s = r.str();
    dcu.controllers.push_back(std::move(c));
  }
  dcu.externalInputs.resize(r.count(8));
  for (std::string& s : dcu.externalInputs) s = r.str();
  const std::size_t numProducers = r.count();
  for (std::size_t i = 0; i < numProducers; ++i) {
    const std::string signal = r.str();
    dcu.producerOf[signal] = r.i32();
  }
  const std::size_t numConsumed = r.count();
  for (std::size_t i = 0; i < numConsumed; ++i) {
    const std::string signal = r.str();
    std::set<int>& consumers = dcu.consumersOf[signal];
    const std::size_t numConsumers = r.count(4);
    for (std::size_t c = 0; c < numConsumers; ++c) consumers.insert(r.i32());
  }
  return dcu;
}

void encodeScheduled(Writer& w, const sched::ScheduledDfg& s) {
  encodeDfg(w, s.graph);
  encodeBinding(w, s.binding);
  encodeSteps(w, s.steps);
  encodeTaubm(w, s.taubm);
  encodeLibrary(w, s.library);
  w.f64(s.clockNs);
}

sched::ScheduledDfg decodeScheduled(Reader& r) {
  sched::ScheduledDfg s;
  s.graph = decodeDfg(r);
  s.binding = decodeBinding(r);
  s.steps = decodeSteps(r);
  s.taubm = decodeTaubm(r);
  s.library = decodeLibrary(r);
  s.clockNs = r.f64();
  return s;
}

void encodeLatencyRow(Writer& w, const sim::LatencyRow& row) {
  w.f64(row.bestNs);
  w.f64(row.worstNs);
  w.u64(row.averageNs.size());
  for (double v : row.averageNs) w.f64(v);
}

sim::LatencyRow decodeLatencyRow(Reader& r) {
  sim::LatencyRow row;
  row.bestNs = r.f64();
  row.worstNs = r.f64();
  row.averageNs.resize(r.count(8));
  for (double& v : row.averageNs) v = r.f64();
  return row;
}

void encodeLatency(Writer& w, const sim::LatencyComparison& l) {
  w.u64(l.ps.size());
  for (double p : l.ps) w.f64(p);
  encodeLatencyRow(w, l.tau);
  encodeLatencyRow(w, l.dist);
  w.u64(l.enhancementPercent.size());
  for (double e : l.enhancementPercent) w.f64(e);
}

sim::LatencyComparison decodeLatency(Reader& r) {
  sim::LatencyComparison l;
  l.ps.resize(r.count(8));
  for (double& p : l.ps) p = r.f64();
  l.tau = decodeLatencyRow(r);
  l.dist = decodeLatencyRow(r);
  l.enhancementPercent.resize(r.count(8));
  for (double& e : l.enhancementPercent) e = r.f64();
  return l;
}

void encodeReport(Writer& w, const verify::Report& report) {
  w.u64(report.diagnostics().size());
  for (const verify::Diagnostic& d : report.diagnostics()) {
    w.str(d.code);
    w.str(d.artifact);
    w.str(d.where);
    w.str(d.message);
  }
}

verify::Report decodeReport(Reader& r) {
  verify::Report report;
  const std::size_t numDiags = r.count();
  for (std::size_t i = 0; i < numDiags; ++i) {
    const std::string code = r.str();
    const std::string artifact = r.str();
    const std::string where = r.str();
    const std::string message = r.str();
    // Report::add re-resolves the severity from the rule registry, so a blob
    // can never smuggle in a severity the registry does not assign -- and it
    // throws on unknown codes, turning a corrupted code into a cache miss.
    report.add(code, artifact, where, message);
  }
  return report;
}

void encodeAreaRow(Writer& w, const synth::AreaRow& row) {
  w.str(row.name);
  w.i32(row.inputs);
  w.i32(row.outputs);
  w.i32(row.states);
  w.i32(row.flipFlops);
  w.i32(row.combArea);
  w.i32(row.seqArea);
}

synth::AreaRow decodeAreaRow(Reader& r) {
  synth::AreaRow row;
  row.name = r.str();
  row.inputs = r.i32();
  row.outputs = r.i32();
  row.states = r.i32();
  row.flipFlops = r.i32();
  row.combArea = r.i32();
  row.seqArea = r.i32();
  return row;
}

void encodeDistArea(Writer& w, const synth::DistributedAreaReport& rep) {
  w.u64(rep.perController.size());
  for (const synth::AreaRow& row : rep.perController) encodeAreaRow(w, row);
  encodeAreaRow(w, rep.total);
  w.i32(rep.completionLatches);
}

synth::DistributedAreaReport decodeDistArea(Reader& r) {
  synth::DistributedAreaReport rep;
  const std::size_t numRows = r.count();
  rep.perController.reserve(numRows);
  for (std::size_t i = 0; i < numRows; ++i) {
    rep.perController.push_back(decodeAreaRow(r));
  }
  rep.total = decodeAreaRow(r);
  rep.completionLatches = r.i32();
  return rep;
}

void encodeRuleCost(Writer& w, const verify::RuleCost& cost) {
  w.u64(cost.decisions);
  w.u64(cost.propagations);
  w.u64(cost.conflicts);
  w.u64(cost.learned);
  w.u64(cost.restarts);
  w.u64(cost.queries);
  w.u64(cost.simDischarged);
}

verify::RuleCost decodeRuleCost(Reader& r) {
  verify::RuleCost cost;
  cost.decisions = r.u64();
  cost.propagations = r.u64();
  cost.conflicts = r.u64();
  cost.learned = r.u64();
  cost.restarts = r.u64();
  cost.queries = r.u64();
  cost.simDischarged = r.u64();
  return cost;
}

void encodeEquivalence(Writer& w, const verify::EquivalenceArtifact& art) {
  encodeReport(w, art.report);
  w.i32(art.stats.controllers);
  w.i32(art.stats.functionsCompared);
  w.u64(art.stats.satConflicts);
  w.u32(static_cast<std::uint32_t>(art.stats.ruleCost.size()));
  for (const auto& [code, cost] : art.stats.ruleCost) {
    w.str(code);
    encodeRuleCost(w, cost);
  }
}

verify::EquivalenceArtifact decodeEquivalence(Reader& r) {
  verify::EquivalenceArtifact art;
  art.report = decodeReport(r);
  art.stats.controllers = r.i32();
  art.stats.functionsCompared = r.i32();
  art.stats.satConflicts = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string code = r.str();
    art.stats.ruleCost[code] = decodeRuleCost(r);
  }
  return art;
}

void encodeSymbolic(Writer& w, const verify::SymbolicArtifact& art) {
  encodeReport(w, art.report);
  w.str(art.stats.artifact);
  w.u64(art.stats.controllers);
  w.u64(art.stats.stateBits);
  w.u64(art.stats.templateNodes);
  w.boolean(art.stats.invariantHolds);
  encodeRuleCost(w, art.stats.invariantCost);
  w.u64(art.stats.properties.size());
  for (const verify::SymbolicProperty& p : art.stats.properties) {
    w.str(p.rule);
    w.u8(static_cast<std::uint8_t>(p.verdict));
    w.i32(p.depthReached);
    w.i32(p.inductionK);
    w.i32(p.cexLength);
    encodeRuleCost(w, p.cost);
  }
}

verify::SymbolicArtifact decodeSymbolic(Reader& r) {
  verify::SymbolicArtifact art;
  art.report = decodeReport(r);
  art.stats.artifact = r.str();
  art.stats.controllers = r.u64();
  art.stats.stateBits = r.u64();
  art.stats.templateNodes = r.u64();
  art.stats.invariantHolds = r.boolean();
  art.stats.invariantCost = decodeRuleCost(r);
  const std::size_t numProps = r.count();
  art.stats.properties.reserve(numProps);
  for (std::size_t i = 0; i < numProps; ++i) {
    verify::SymbolicProperty p;
    p.rule = r.str();
    p.verdict = static_cast<verify::PropertyVerdict>(checkedEnum(
        r.u8(), verify::PropertyVerdict::Unknown, "PropertyVerdict"));
    p.depthReached = r.i32();
    p.inductionK = r.i32();
    p.cexLength = r.i32();
    p.cost = decodeRuleCost(r);
    art.stats.properties.push_back(std::move(p));
  }
  return art;
}

void encodeXpropRows(Writer& w,
                     const std::vector<verify::XpropPropertyStat>& rows) {
  w.u64(rows.size());
  for (const verify::XpropPropertyStat& p : rows) {
    w.str(p.artifact);
    w.str(p.rule);
    w.str(p.verdict);
    w.i32(p.depth);
    w.i32(p.cexCycle);
    w.u64(p.instances);
    w.u64(p.gateEvals);
    encodeRuleCost(w, p.cost);
  }
}

std::vector<verify::XpropPropertyStat> decodeXpropRows(Reader& r) {
  const std::size_t n = r.count();
  std::vector<verify::XpropPropertyStat> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    verify::XpropPropertyStat p;
    p.artifact = r.str();
    p.rule = r.str();
    p.verdict = r.str();
    p.depth = r.i32();
    p.cexCycle = r.i32();
    p.instances = r.u64();
    p.gateEvals = r.u64();
    p.cost = decodeRuleCost(r);
    rows.push_back(std::move(p));
  }
  return rows;
}

void encodeXCheck(Writer& w, const verify::XCheckArtifact& art) {
  encodeReport(w, art.report);
  w.str(art.xprop.artifact);
  w.u64(art.xprop.controllers);
  w.u64(art.xprop.stateBits);
  w.u64(art.xprop.latchBits);
  w.i32(art.xprop.resetDepth);
  w.u64(art.xprop.instances);
  w.u64(art.xprop.gateEvals);
  w.u64(art.xprop.rtlCycles);
  encodeXpropRows(w, art.xprop.properties);
  w.str(art.dcs.artifact);
  w.u64(art.dcs.controllers);
  w.u64(art.dcs.functionsChecked);
  w.u64(art.dcs.dcFunctions);
  encodeXpropRows(w, art.dcs.properties);
}

verify::XCheckArtifact decodeXCheck(Reader& r) {
  verify::XCheckArtifact art;
  art.report = decodeReport(r);
  art.xprop.artifact = r.str();
  art.xprop.controllers = static_cast<std::size_t>(r.u64());
  art.xprop.stateBits = static_cast<std::size_t>(r.u64());
  art.xprop.latchBits = static_cast<std::size_t>(r.u64());
  art.xprop.resetDepth = r.i32();
  art.xprop.instances = r.u64();
  art.xprop.gateEvals = r.u64();
  art.xprop.rtlCycles = r.u64();
  art.xprop.properties = decodeXpropRows(r);
  art.dcs.artifact = r.str();
  art.dcs.controllers = static_cast<std::size_t>(r.u64());
  art.dcs.functionsChecked = r.u64();
  art.dcs.dcFunctions = r.u64();
  art.dcs.properties = decodeXpropRows(r);
  return art;
}

// A cover is its variable count plus (care, value) mask pairs; decoding
// rebuilds every cube through the Cube/Cover API, so arity and literal
// bounds are re-validated.
void encodeCover(Writer& w, const logic::Cover& cover) {
  w.i32(cover.numVars());
  w.u64(cover.numCubes());
  for (const logic::Cube& cube : cover.cubes()) {
    w.u64(cube.careMask());
    w.u64(cube.valueMask());
  }
}

logic::Cover decodeCover(Reader& r) {
  const int numVars = r.i32();
  TAUHLS_CHECK(numVars >= 0 && numVars <= 64,
               "artifact blob: cover variable count out of range");
  logic::Cover cover(numVars);
  const std::size_t numCubes = r.count(16);
  for (std::size_t i = 0; i < numCubes; ++i) {
    const std::uint64_t care = r.u64();
    const std::uint64_t value = r.u64();
    const std::uint64_t vars =
        numVars == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << numVars) - 1;
    TAUHLS_CHECK((care & ~vars) == 0 && (value & ~care) == 0,
                 "artifact blob: cube literal outside its cover");
    logic::Cube cube = logic::Cube::full(numVars);
    for (int v = 0; v < numVars; ++v) {
      if ((care >> v) & 1) cube.setLiteral(v, ((value >> v) & 1) != 0);
    }
    cover.add(cube);
  }
  return cover;
}

void encodeSynthesizedFsm(Writer& w, const synth::SynthesizedFsm& syn) {
  w.str(syn.name);
  w.i32(syn.numInputs);
  w.i32(syn.numOutputs);
  w.i32(syn.numStates);
  w.i32(syn.flipFlops);
  for (const auto* covers : {&syn.nextStateLogic, &syn.outputLogic}) {
    w.u64(covers->size());
    for (const logic::Cover& cover : *covers) encodeCover(w, cover);
  }
}

synth::SynthesizedFsm decodeSynthesizedFsm(Reader& r) {
  synth::SynthesizedFsm syn;
  syn.name = r.str();
  syn.numInputs = r.i32();
  syn.numOutputs = r.i32();
  syn.numStates = r.i32();
  syn.flipFlops = r.i32();
  TAUHLS_CHECK(syn.numInputs >= 0 && syn.numInputs <= 64 &&
                   syn.flipFlops >= 0 && syn.flipFlops <= 64 &&
                   syn.numOutputs >= 0 && syn.numStates >= 0,
               "artifact blob: machine shape out of range");
  for (auto* covers : {&syn.nextStateLogic, &syn.outputLogic}) {
    const std::size_t n = r.count(12);
    for (std::size_t i = 0; i < n; ++i) {
      covers->push_back(decodeCover(r));
      TAUHLS_CHECK(covers->back().numVars() == syn.flipFlops + syn.numInputs,
                   "artifact blob: cover arity differs from the machine's");
    }
  }
  TAUHLS_CHECK(
      syn.nextStateLogic.size() == static_cast<std::size_t>(syn.flipFlops) &&
          syn.outputLogic.size() == static_cast<std::size_t>(syn.numOutputs),
      "artifact blob: cover count differs from the machine's");
  return syn;
}

void encodeSynth(Writer& w, const synth::SynthesizedControllers& syn) {
  w.u8(static_cast<std::uint8_t>(syn.style));
  w.u64(syn.controllers.size());
  for (const synth::SynthesizedFsm& m : syn.controllers) {
    encodeSynthesizedFsm(w, m);
  }
}

synth::SynthesizedControllers decodeSynth(Reader& r) {
  synth::SynthesizedControllers syn;
  syn.style = static_cast<synth::EncodingStyle>(
      checkedEnum(r.u8(), synth::EncodingStyle::OneHot, "EncodingStyle"));
  const std::size_t n = r.count(40);
  for (std::size_t i = 0; i < n; ++i) {
    syn.controllers.push_back(decodeSynthesizedFsm(r));
  }
  return syn;
}

void encodeSignalStats(Writer& w, const fsm::SignalOptStats& s) {
  w.i32(s.removedOutputs);
  w.i32(s.keptOutputs);
}

fsm::SignalOptStats decodeSignalStats(Reader& r) {
  fsm::SignalOptStats s;
  s.removedOutputs = r.i32();
  s.keptOutputs = r.i32();
  return s;
}

template <typename T>
const T& unbox(const std::any& value) {
  const auto* ptr = std::any_cast<std::shared_ptr<const T>>(&value);
  TAUHLS_CHECK(ptr != nullptr && *ptr != nullptr,
               "encodeArtifact: value does not hold the kind's artifact type");
  return **ptr;
}

template <typename T>
std::any box(T value) {
  return std::make_shared<const T>(std::move(value));
}

}  // namespace

std::vector<std::uint8_t> encodeArtifact(Artifact kind,
                                         const std::any& value) {
  Writer w;
  switch (kind) {
    case Artifact::Schedule:
      encodeScheduled(w, unbox<sched::ScheduledDfg>(value));
      break;
    case Artifact::RawDistributed:
    case Artifact::Distributed:
      encodeDcu(w, unbox<fsm::DistributedControlUnit>(value));
      break;
    case Artifact::SignalStats:
      encodeSignalStats(w, unbox<fsm::SignalOptStats>(value));
      break;
    case Artifact::CentSync:
    case Artifact::CentFsm:
      encodeFsm(w, unbox<fsm::Fsm>(value));
      break;
    case Artifact::Latency:
      encodeLatency(w, unbox<sim::LatencyComparison>(value));
      break;
    case Artifact::Diagnostics:
    case Artifact::Timing:
      encodeReport(w, unbox<verify::Report>(value));
      break;
    case Artifact::DistArea:
      encodeDistArea(w, unbox<synth::DistributedAreaReport>(value));
      break;
    case Artifact::CentSyncArea:
    case Artifact::CentFsmArea:
      encodeAreaRow(w, unbox<synth::AreaRow>(value));
      break;
    case Artifact::Rtl:
      w.str(unbox<std::string>(value));
      break;
    case Artifact::Equivalence:
      encodeEquivalence(w, unbox<verify::EquivalenceArtifact>(value));
      break;
    case Artifact::SymbolicCheck:
      encodeSymbolic(w, unbox<verify::SymbolicArtifact>(value));
      break;
    case Artifact::XCheck:
      encodeXCheck(w, unbox<verify::XCheckArtifact>(value));
      break;
    case Artifact::Synth:
    case Artifact::SynthEncoded:
      encodeSynth(w, unbox<synth::SynthesizedControllers>(value));
      break;
  }
  return w.take();
}

std::any decodeArtifact(Artifact kind, const std::uint8_t* data,
                        std::size_t size) {
  Reader r(data, size);
  std::any result;
  switch (kind) {
    case Artifact::Schedule:
      result = box(decodeScheduled(r));
      break;
    case Artifact::RawDistributed:
    case Artifact::Distributed:
      result = box(decodeDcu(r));
      break;
    case Artifact::SignalStats:
      result = box(decodeSignalStats(r));
      break;
    case Artifact::CentSync:
    case Artifact::CentFsm:
      result = box(decodeFsm(r));
      break;
    case Artifact::Latency:
      result = box(decodeLatency(r));
      break;
    case Artifact::Diagnostics:
    case Artifact::Timing:
      result = box(decodeReport(r));
      break;
    case Artifact::DistArea:
      result = box(decodeDistArea(r));
      break;
    case Artifact::CentSyncArea:
    case Artifact::CentFsmArea:
      result = box(decodeAreaRow(r));
      break;
    case Artifact::Rtl:
      result = box(r.str());
      break;
    case Artifact::Equivalence:
      result = box(decodeEquivalence(r));
      break;
    case Artifact::SymbolicCheck:
      result = box(decodeSymbolic(r));
      break;
    case Artifact::XCheck:
      result = box(decodeXCheck(r));
      break;
    case Artifact::Synth:
    case Artifact::SynthEncoded:
      result = box(decodeSynth(r));
      break;
  }
  r.expectEnd();
  TAUHLS_CHECK(result.has_value(), "decodeArtifact: unknown artifact kind");
  return result;
}

}  // namespace tauhls::core

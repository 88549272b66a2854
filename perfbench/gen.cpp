// perfbench_gen -- writes the benchmark's input designs.
//
// Reads one request per line from stdin and writes (or rewrites) one .dfg
// file per request, always through dfg::printDfg / dfg::printProgram:
//
//   paper   INDEX  RENAME_SEED OUT       paperTable2Suite()[INDEX]
//   layered LAYERS WIDTH MUL_PERMILLE SPEC_SEED RENAME_SEED OUT
//   firiir  RENAME_SEED OUT              dfg::firIirLoop()
//   region  BLOCKS LEAF_LAYERS LEAF_WIDTH SPEC_SEED RENAME_SEED OUT
//   edit    operand|opclass EDIT_SEED FILE   one-op edit, in place
//
// RENAME_SEED relabels every identifier with random names whose sort order
// equals the original names' order, so a seed changes every fingerprint and
// cache key but not the structure, schedule or any reported number.  An
// `operand` edit swaps the two operands of one binary op (the leaf's
// fingerprint changes, the allocation does not); an `opclass` edit turns one
// add into a subtract or back, moving the op between unit classes without
// changing the telescopic (multiply) count (the shared allocation the leaves
// are normalized against can change).  Same request, same bytes.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "dfg/textio.hpp"

namespace {

using namespace tauhls;

/// splitmix64: a portable generator (std distributions differ by library).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

const std::set<std::string>& keywords() {
  static const std::set<std::string> k = {"in", "out", "order", "loop", "if",
                                          "else"};
  return k;
}

const std::regex& identifier() {
  static const std::regex re("[A-Za-z_][A-Za-z0-9_]*");
  return re;
}

/// Order-preserving random relabelling of every identifier in `text`.
std::string rename(const std::string& text, std::uint64_t seed) {
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), identifier());
       it != std::sregex_iterator(); ++it) {
    if (!keywords().count(it->str())) names.insert(it->str());
  }
  Rng rng{seed};
  std::set<std::string> fresh;
  while (fresh.size() < names.size()) {
    std::string n = "v";
    for (int i = 0; i < 7; ++i) n += "abcdefghijklmnopqrstuvwxyz"[rng.below(26)];
    fresh.insert(n);
  }
  std::map<std::string, std::string> map;
  auto f = fresh.begin();
  for (const std::string& n : names) map[n] = *f++;
  std::string out;
  std::size_t last = 0;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), identifier());
       it != std::sregex_iterator(); ++it) {
    out.append(text, last, static_cast<std::size_t>(it->position()) - last);
    const auto m = map.find(it->str());
    out += m == map.end() ? it->str() : m->second;
    last = static_cast<std::size_t>(it->position() + it->length());
  }
  out.append(text, last);
  return out;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  TAUHLS_CHECK(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string stem(const std::string& path) {
  std::string n = path.substr(path.find_last_of('/') + 1);
  return n.substr(0, n.find_last_of('.'));
}

/// Normalize through the parser and printer, then write.
void writeProgram(const std::string& text, const std::string& path) {
  const std::string printed =
      dfg::printProgram(dfg::parseProgram(text, stem(path)));
  std::ofstream out(path);
  TAUHLS_CHECK(static_cast<bool>(out), "cannot write " + path);
  out << printed;
}

/// One-op edit of the statement `dst = a OP b` picked by `seed`.
std::string edit(const std::string& text, const std::string& kind,
                 std::uint64_t seed) {
  static const std::regex binary(
      R"(^(\s*[A-Za-z_]\w*\s*=\s*)([A-Za-z_]\w*)\s*([-+*])\s*([A-Za-z_]\w*)\s*$)");
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_match(lines[i], m, binary)) continue;
    if (kind == "opclass" && m[3] == "*") continue;
    candidates.push_back(i);
  }
  TAUHLS_CHECK(!candidates.empty(), "no editable operation");
  Rng rng{seed};
  std::string& line = lines[candidates[rng.below(candidates.size())]];
  std::smatch m;
  std::regex_match(line, m, binary);
  if (kind == "operand") {
    line = m[1].str() + m[4].str() + " " + m[3].str() + " " + m[2].str();
  } else {
    TAUHLS_CHECK(kind == "opclass", "unknown edit kind " + kind);
    const std::string op = m[3] == "+" ? "-" : "+";
    line = m[1].str() + m[2].str() + " " + op + " " + m[4].str();
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

void handle(const std::vector<std::string>& f) {
  const std::string& what = f.at(0);
  auto num = [&](std::size_t i) { return std::stoull(f.at(i)); };
  auto inum = [&](std::size_t i) { return static_cast<int>(std::stoi(f.at(i))); };
  if (what == "paper") {
    const auto suite = dfg::paperTable2Suite();
    writeProgram(rename(dfg::printDfg(suite.at(num(1)).graph), num(2)), f.at(3));
  } else if (what == "layered") {
    dfg::RandomDfgSpec spec;
    spec.numLayers = inum(1);
    spec.layerWidth = inum(2);
    spec.mulPermille = inum(3);
    spec.seed = num(4);
    writeProgram(rename(dfg::printDfg(dfg::randomDfg(spec)), num(5)), f.at(6));
  } else if (what == "firiir") {
    writeProgram(rename(dfg::firIirLoopText(), num(1)), f.at(2));
  } else if (what == "region") {
    dfg::RandomRegionSpec spec;
    spec.numBlocks = inum(1);
    spec.leaf.numLayers = inum(2);
    spec.leaf.layerWidth = inum(3);
    spec.seed = num(4);
    writeProgram(
        rename(dfg::printProgram(dfg::randomRegionProgram(spec)), num(5)),
        f.at(6));
  } else if (what == "edit") {
    writeProgram(edit(readFile(f.at(3)), f.at(1), num(2)), f.at(3));
  } else {
    TAUHLS_FAIL("unknown request '" + what + "'");
  }
}

}  // namespace

int main() {
  std::string line;
  int lineNo = 0;
  while (std::getline(std::cin, line)) {
    ++lineNo;
    std::istringstream words(line);
    std::vector<std::string> fields;
    for (std::string w; words >> w;) fields.push_back(w);
    if (fields.empty()) continue;
    try {
      handle(fields);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_gen: line " << lineNo << ": " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

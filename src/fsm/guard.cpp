#include "fsm/guard.hpp"

#include <algorithm>

namespace tauhls::fsm {

Guard Guard::always() {
  Guard g;
  g.terms_.push_back(GuardTerm{});
  return g;
}

Guard Guard::never() { return Guard{}; }

Guard Guard::literal(const std::string& signal, bool positive) {
  Guard g;
  GuardTerm t;
  t.literals[signal] = positive;
  g.terms_.push_back(std::move(t));
  return g;
}

Guard Guard::allOf(const std::vector<std::string>& signals) {
  Guard g;
  GuardTerm t;
  for (const std::string& s : signals) t.literals[s] = true;
  g.terms_.push_back(std::move(t));
  return g;
}

Guard Guard::notAllOf(const std::vector<std::string>& signals) {
  Guard g;
  for (const std::string& s : signals) {
    GuardTerm t;
    t.literals[s] = false;
    g.terms_.push_back(std::move(t));
  }
  return g;
}

Guard Guard::conjoin(const Guard& other) const {
  Guard out;
  for (const GuardTerm& a : terms_) {
    for (const GuardTerm& b : other.terms_) {
      GuardTerm merged = a;
      bool contradiction = false;
      for (const auto& [signal, positive] : b.literals) {
        auto [it, inserted] = merged.literals.emplace(signal, positive);
        if (!inserted && it->second != positive) {
          contradiction = true;
          break;
        }
      }
      if (!contradiction) out.terms_.push_back(std::move(merged));
    }
  }
  return out;
}

Guard Guard::disjoin(const Guard& other) const {
  Guard out = *this;
  for (const GuardTerm& t : other.terms_) out.terms_.push_back(t);
  return out;
}

bool Guard::evaluate(const std::unordered_set<std::string>& asserted) const {
  return holds([&](const std::string& s) { return asserted.contains(s); });
}

std::vector<std::string> Guard::signals() const {
  std::vector<std::string> out;
  for (const GuardTerm& t : terms_) {
    for (const auto& [signal, positive] : t.literals) out.push_back(signal);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Guard::isAlways() const {
  for (const GuardTerm& t : terms_) {
    if (t.literals.empty()) return true;
  }
  return false;
}

std::string Guard::toString() const {
  if (terms_.empty()) return "0";
  std::string s;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i != 0) s += " | ";
    if (terms_[i].literals.empty()) {
      s += "1";
      continue;
    }
    bool first = true;
    for (const auto& [signal, positive] : terms_[i].literals) {
      if (!first) s += "&";
      first = false;
      if (!positive) s += "!";
      s += signal;
    }
  }
  return s;
}

}  // namespace tauhls::fsm

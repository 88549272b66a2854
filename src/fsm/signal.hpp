// Canonical control-signal naming shared by FSM generation, simulation and
// RTL emission (paper Figs. 5-7):
//   C_<unit>    completion signal of a telescopic unit's generator
//   CCO_<op>    operation-completion signal (C_CO at the producer,
//               C_PO at consumers -- same wire)
//   OF_<op>     operand-fetch signal driving the unit's input muxes
//   RE_<op>     register-enable latching the op's result
// and the controller state names the generators write and the interpreters
// read back:
//   S<i>, S<i>p, S<i>pp, ...   execution levels 0, 1, 2, ... of op i
//   R<i>                       ready-wait before op i
#pragma once

#include <string>

#include "sched/binding.hpp"

namespace tauhls::fsm {

std::string unitCompletionSignal(const sched::UnitInstance& unit);
std::string opCompletionSignal(const std::string& opName);
std::string operandFetchSignal(const std::string& opName);
std::string registerEnableSignal(const std::string& opName);

std::string executionStateName(int index, int level);
std::string readyStateName(int index);

/// Role of a state named as above; kind '?' for any other name.
struct ParsedState {
  char kind = '?';  ///< 'S' execution level, 'R' ready-wait
  int index = -1;   ///< op position in the unit sequence (or TAUBM step)
  int level = 0;    ///< execution level ('S' only)
};
ParsedState parseState(const std::string& name);

}  // namespace tauhls::fsm

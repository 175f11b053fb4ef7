// Numeric expression grammar of the scenario DSL.
//
// A deliberately small evaluator in the spirit of OMNeT++'s NED expression
// language (expression.y), covering what declarative workload files need:
// decimal and hex literals, the four arithmetic operators plus modulo,
// unary sign, and parentheses. Variables are not resolved here — the
// document layer substitutes ${var} references textually before the value
// reaches this evaluator, so every input is a closed arithmetic term.
//
//   eval_expression("2 * (5 + 1)")   == 12.0
//   eval_expression("0xC0FFEE")      == 12648430.0
//   eval_expression("3 % 2 - 0.5")   == 0.5
//
// Errors (stray characters, unbalanced parentheses, division by zero, and
// parentheses or unary signs nested more than 256 deep) throw
// std::invalid_argument quoting the offending expression (its first 80
// characters). Parsing is linear in the text length.
#pragma once

#include <string_view>

namespace xl::scenario {

/// Evaluate one arithmetic expression. Throws std::invalid_argument on any
/// syntax error, naming the expression text and the position.
[[nodiscard]] double eval_expression(std::string_view text);

/// True when `text` lexes as a plain number or arithmetic term (the
/// document layer uses this to decide whether a value is numeric or a
/// bare string, without throwing on ordinary words).
[[nodiscard]] bool looks_numeric(std::string_view text);

}  // namespace xl::scenario

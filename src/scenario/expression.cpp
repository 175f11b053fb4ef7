#include "scenario/expression.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xl::scenario {
namespace {

/// Deepest nesting of parentheses and unary signs the parser accepts. Each
/// level costs a few stack frames, so an unbounded input ("((((…" 300k deep)
/// would overflow the stack; no scenario value comes near this.
constexpr int kMaxDepth = 256;

// Recursive-descent parser over the classic three-level grammar:
//   expr   := term (('+' | '-') term)*
//   term   := factor (('*' | '/' | '%') factor)*
//   factor := number | '(' expr ')' | ('+' | '-') factor
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  double parse() {
    const double value = expr();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    constexpr std::size_t kShown = 80;  // Quote at most this much of the text.
    const std::string shown = text_.size() <= kShown
                                  ? std::string(text_)
                                  : std::string(text_.substr(0, kShown - 3)) + "...";
    throw std::invalid_argument("expression '" + shown + "': " + what +
                                " at position " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expr() {
    double value = term();
    for (;;) {
      if (eat('+')) {
        value += term();
      } else if (eat('-')) {
        value -= term();
      } else {
        return value;
      }
    }
  }

  double term() {
    double value = factor();
    for (;;) {
      if (eat('*')) {
        value *= factor();
      } else if (eat('/')) {
        const double rhs = factor();
        if (rhs == 0.0) fail("division by zero");
        value /= rhs;
      } else if (eat('%')) {
        const double rhs = factor();
        if (rhs == 0.0) fail("modulo by zero");
        value = std::fmod(value, rhs);
      } else {
        return value;
      }
    }
  }

  /// One level of parenthesis or unary-sign nesting, bounded by kMaxDepth.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (p_.depth_ == kMaxDepth) {
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  double factor() {
    skip_ws();
    if (eat('(')) {
      const Nest nest(*this);
      const double value = expr();
      if (!eat(')')) fail("missing ')'");
      return value;
    }
    if (eat('-')) {
      const Nest nest(*this);
      return -factor();
    }
    if (eat('+')) {
      const Nest nest(*this);
      return factor();
    }
    return number();
  }

  double number() {
    skip_ws();
    if (pos_ >= text_.size()) fail("expected a number");
    // Copy only the literal's own characters (alphanumerics, '.', and a
    // sign right after a decimal exponent), so a long expression costs
    // O(n) to parse rather than one copy of the remaining text per literal.
    const bool hex = text_.size() - pos_ > 2 && text_[pos_] == '0' &&
                     (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X');
    std::size_t len = 0;
    while (pos_ + len < text_.size()) {
      const char c = text_[pos_ + len];
      const char prev = len > 0 ? text_[pos_ + len - 1] : '\0';
      const bool exponent_sign =
          !hex && (c == '+' || c == '-') && (prev == 'e' || prev == 'E');
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && !exponent_sign) {
        break;
      }
      ++len;
    }
    const std::string rest(text_.substr(pos_, len));
    char* end = nullptr;
    double value = 0.0;
    if (rest.size() > 2 && rest[0] == '0' && (rest[1] == 'x' || rest[1] == 'X')) {
      // Hex literals (scenario seeds) go through strtoull so 64-bit seeds
      // round-trip; the double conversion is exact up to 2^53, far beyond
      // any knob that is not a seed (seeds are re-read as integers by the
      // document layer).
      value = static_cast<double>(std::strtoull(rest.c_str(), &end, 16));
    } else {
      value = std::strtod(rest.c_str(), &end);
    }
    if (end == rest.c_str()) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Open parentheses and unary signs on the current path.
};

}  // namespace

double eval_expression(std::string_view text) { return Parser(text).parse(); }

bool looks_numeric(std::string_view text) {
  // A numeric term starts with a digit, a sign, a dot, or '('; everything
  // else is a bare string (backend names, model names, csv words).
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-' ||
        c == '.' || c == '(') {
      try {
        (void)eval_expression(text);
        return true;
      } catch (const std::invalid_argument&) {
        return false;
      }
    }
    return false;
  }
  return false;
}

}  // namespace xl::scenario

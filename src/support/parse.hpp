#pragma once

/// \file parse.hpp
/// Strict numeric grammar shared by the text surfaces that must agree on
/// one canonical spelling of a number: workload names (engine/workload.cpp,
/// whose `p=` values travel inside shard-report descriptions), the
/// shard-report wire format (dist/report_io.cpp) and the sweep-service
/// request protocol (serve/serve_proto.cpp).  One predicate and one integer
/// parser, so the parsers can never drift apart on what a number looks like;
/// likewise one hex64 spelling for the digests the artifact store and the
/// shard-report format write.
///
/// The spec-grammar helpers below (kind-token tables, `check`,
/// `parse_number`, `parse_probability`, `shortest_double`) are the one copy
/// the workload and fault registries share, so both grammars spell numbers
/// and report errors identically.
///
/// `TokenCursor` serves the artifact text formats (config::to_text,
/// classification_to_text, schedule_to_text), whose hot lines carry
/// thousands of numeric tokens — an adjacency list, a per-node class
/// vector, a label history per node.  One istringstream extraction per
/// token costs a locale-aware stream setup per line and a virtual sentry
/// per number; that made *parsing* a stored artifact about as expensive as
/// re-deriving it.  The cursor scans a line in place with std::from_chars:
/// no allocation, no locale, no stream state.

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "support/assert.hpp"

namespace arl::support {

/// True when `text` is a canonical non-negative number:
/// digits[.digits][e[+-]digits].  Deliberately narrower than std::stod's
/// grammar — no signs, inf/nan, hexfloats or surrounding whitespace — so a
/// writer that prints this form round-trips and nothing else parses.
[[nodiscard]] constexpr bool is_canonical_number(std::string_view text) {
  std::size_t i = 0;
  const auto digits = [&]() {
    const std::size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
    }
    return i > start;
  };
  if (!digits()) {
    return false;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
  }
  if (i < text.size() && text[i] == 'e') {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
  }
  return i == text.size();
}

/// Parses a strict canonical decimal u64: nonempty, digits only (no signs,
/// whitespace or leading-zero alternatives rejected by length alone), at
/// most 20 characters, and within [0, max].  Returns nullopt on any
/// violation so callers translate into their own error types.
[[nodiscard]] constexpr std::optional<std::uint64_t> parse_decimal_u64(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text.empty() || text.size() > 20) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  if (value > max) {
    return std::nullopt;
  }
  return value;
}

/// The 16 lowercase hex digits of `value` — the spelling of every digest
/// and key in the artifact store and the shard-report format.
[[nodiscard]] inline std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

/// Parses exactly the hex64 spelling: 16 lowercase hex digits.  Returns
/// nullopt on any other text so callers translate into their own error
/// types.
[[nodiscard]] constexpr std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.size() != 16) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return value;
}

/// A spec grammar's registry-order table of (kind, token) pairs — the token
/// is the part of a spec name before ':'.
template <typename Kind, std::size_t N>
using KindTokens = std::array<std::pair<Kind, const char*>, N>;

/// The token spelling `kind` in `table` ("?" for a kind it lacks).
template <typename Kind, std::size_t N>
[[nodiscard]] constexpr const char* kind_token(const KindTokens<Kind, N>& table, Kind kind) {
  for (const auto& [k, token] : table) {
    if (k == kind) {
      return token;
    }
  }
  return "?";
}

/// The kind `token` spells in `table`, or nullopt for an unknown token.
template <typename Kind, std::size_t N>
[[nodiscard]] constexpr std::optional<Kind> find_kind(const KindTokens<Kind, N>& table,
                                                      std::string_view token) {
  for (const auto& [k, name] : table) {
    if (token == name) {
      return k;
    }
  }
  return std::nullopt;
}

/// Throws ContractViolation(`what`) unless `ok`: spec errors are shown
/// verbatim by the CLI, so they read as usage errors, not assertions.
inline void check(bool ok, const std::string& what) {
  if (!ok) {
    throw ContractViolation(what);
  }
}

/// Shortest decimal spelling that round-trips to exactly `value` — the
/// canonical form of the probabilities in spec names ("0.3", not
/// "0.29999999999999999").
[[nodiscard]] inline std::string shortest_double(double value) {
  for (int precision = 1; precision <= std::numeric_limits<double>::max_digits10;
       ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    if (std::stod(out.str()) == value) {
      return out.str();
    }
  }
  return std::to_string(value);
}

/// A spec's integer parameter: 1 to 9 decimal digits, nothing else.
[[nodiscard]] inline std::uint32_t parse_number(const std::string& value,
                                                const std::string& what) {
  check(!value.empty() && value.size() <= 9 &&
            value.find_first_not_of("0123456789") == std::string::npos,
        what + " must be a decimal integer in [0, 999999999] (got '" + value + "')");
  return static_cast<std::uint32_t>(std::stoul(value));
}

/// A spec's real parameter.  Only canonical non-negative spellings
/// (is_canonical_number, the grammar every wire surface shares) — so a name
/// parses to exactly the double its writer printed.
[[nodiscard]] inline double parse_probability(const std::string& value, const std::string& what) {
  check(is_canonical_number(value), what + " must be a decimal number (got '" + value + "')");
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    throw ContractViolation(what + " is out of range (got '" + value + "')");
  }
}

/// Splits one line into whitespace-separated tokens, in place.  The cursor
/// only borrows the text — callers keep the backing string alive for as
/// long as returned tokens are used.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Advances to the next token; false at end of line.
  bool next(std::string_view& token) {
    while (pos_ != end_ && is_space(*pos_)) {
      ++pos_;
    }
    if (pos_ == end_) {
      return false;
    }
    const char* start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) {
      ++pos_;
    }
    token = std::string_view(start, static_cast<std::size_t>(pos_ - start));
    return true;
  }

  /// Parses the next token as an integer of type T; false when the line is
  /// exhausted or the token has any non-numeric byte (no partial parses).
  template <typename T>
  bool next_number(T& value) {
    std::string_view token;
    if (!next(token)) {
      return false;
    }
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    return ec == std::errc{} && ptr == token.data() + token.size();
  }

 private:
  static bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  const char* pos_;
  const char* end_;
};

}  // namespace arl::support

// The one reader of every input file (scenarios, fault plans, traces),
// and so the one place that knows the token grammar:
//   - '#' starts a comment to the end of the line; blank lines are
//     skipped; a line is a key and whitespace-separated tokens;
//   - a number is a whole token strtod reads to a finite value without
//     ERANGE ("1.5x", "nan", "inf", "1e999" are not);
//   - an integer is a whole token that starts with a digit and fits in
//     64 bits ("-1" is not); a u32 also fits in 32 bits;
//   - a trailing token after a record's last field is an error.
// A rejection prints "<tool>: <source>:<line>: <what>", quoting the
// token, and aborts. Command-line flags and comma lists use the same
// converters and split().
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace anufs {

[[nodiscard]] inline std::optional<double> to_double(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

[[nodiscard]] inline std::optional<std::uint64_t> to_u64(const std::string& s) {
  // strtoull quietly wraps negatives ("-1" -> 2^64-1): a digit comes first.
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] inline std::optional<std::uint32_t> to_u32(const std::string& s) {
  const std::optional<std::uint64_t> v = to_u64(s);
  if (!v.has_value() || *v > 0xffffffffull) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

/// `s` cut at every `sep`: "a,,b" gives {"a", "", "b"}.
[[nodiscard]] inline std::vector<std::string> split(const std::string& s,
                                                    char sep) {
  std::vector<std::string> parts(1);
  for (const char c : s) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

/// `path` opened for reading, or "<tool>: cannot open <path>" and abort.
[[nodiscard]] inline std::ifstream open_input(const char* tool,
                                              const std::string& path) {
  std::ifstream in(path);
  if (in.good()) return in;
  std::fprintf(stderr, "%s: cannot open %s\n", tool, path.c_str());
  std::abort();
}

class LineReader {
 public:
  /// `tool` and `source` (a path, "<inline>") head every diagnostic;
  /// `lines_read` counts lines the caller consumed first (a magic line).
  LineReader(std::istream& in, std::string tool, std::string source,
             std::size_t lines_read = 0)
      : in_(in),
        tool_(std::move(tool)),
        source_(std::move(source)),
        line_(lines_read) {}

  /// Moves to the next non-blank line; false at the end of the input.
  bool next() {
    std::string text;
    while (std::getline(in_, text)) {
      ++line_;
      text.resize(std::min(text.find('#'), text.size()));
      tokens_.clear();
      tokens_.str(text);
      if (tokens_ >> std::ws; !tokens_.eof()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

  /// The next token; fails with "missing <what>" at the end of the line.
  std::string word(const char* what) {
    std::string token;
    if (!(tokens_ >> token)) fail(std::string("missing ") + what);
    return token;
  }

  double number(const char* what) { return number(word(what), what); }
  double number(const std::string& token, const char* what) const {
    return checked(to_double(token), token, what, "a finite number");
  }
  std::uint64_t u64(const char* what) { return u64(word(what), what); }
  std::uint64_t u64(const std::string& token, const char* what) const {
    return checked(to_u64(token), token, what, "a non-negative integer");
  }
  std::uint32_t u32(const char* what) {
    const std::string token = word(what);
    return checked(to_u32(token), token, what, "a 32-bit unsigned integer");
  }

  /// The record is complete: fails on a trailing token.
  void end() {
    if (std::string extra; tokens_ >> extra) {
      fail("trailing token '" + extra + "'");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(line_, what);
  }
  [[noreturn]] void fail_at(std::size_t line, const std::string& what) const {
    std::fprintf(stderr, "%s: %s:%zu: %s\n", tool_.c_str(), source_.c_str(),
                 line, what.c_str());
    std::abort();
  }

 private:
  template <typename T>
  T checked(const std::optional<T>& v, const std::string& token,
            const char* what, const char* expected) const {
    if (!v.has_value()) {
      fail(std::string("bad ") + what + " '" + token + "' (expected " +
           expected + ")");
    }
    return *v;
  }

  std::istream& in_;
  std::string tool_;
  std::string source_;
  std::size_t line_;
  std::istringstream tokens_;  // the current line, comment stripped
};

}  // namespace anufs

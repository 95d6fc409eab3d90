// P1 fixture: string-to-number calls outside common/line_reader.h must
// fire; mentions in comments and strings must not. NOT compiled.
#include <cstdlib>
#include <string>

namespace fixture {

// std::stod in a comment is not a call.
inline double raw_conversions(const std::string& s, const char* c) {
  double v = std::stod(s);                   // expect-lint: P1
  v += static_cast<double>(std::stoul(s));   // expect-lint: P1
  v += static_cast<double>(std::stoi(s));    // expect-lint: P1
  v += std::strtod(c, nullptr);              // expect-lint: P1
  v += static_cast<double>(strtoull(c, nullptr, 10));  // expect-lint: P1
  v += static_cast<double>(std::strtol(c, nullptr, 10));  // expect-lint: P1
  v += std::atof(c) + atoi(c);               // expect-lint: P1
  v += static_cast<double>(atol(c));         // expect-lint: P1
  const std::string text = "strtod atoi std::stoul";
  return v + static_cast<double>(text.size());
}

}  // namespace fixture

// Small string builders shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sca::common {

/// `prefix`, the decimal `n`, then `suffix`: numbered("b", 3, "_") is "b3_".
/// Appends rather than writing `"b" + std::to_string(n)`, on which GCC 12
/// at -O3 raises a false-positive -Wrestrict that -Werror makes fatal.
inline std::string numbered(std::string_view prefix, std::uint64_t n,
                            std::string_view suffix = {}) {
  std::string out(prefix);
  out += std::to_string(n);
  out += suffix;
  return out;
}

}  // namespace sca::common

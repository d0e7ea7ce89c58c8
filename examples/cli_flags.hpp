#pragma once
// Numeric command-line flags shared by recoil_served and recoil_client: a
// value is a whole decimal number within the flag's range, or the command
// line is refused (the caller prints its usage and exits 2).

#include <charconv>
#include <cstdio>
#include <optional>
#include <string_view>

#include "util/ints.hpp"

namespace recoil::cli {

/// The whole of `s` as a decimal integer in [lo, hi]; nullopt otherwise
/// (empty, a sign, trailing characters, overflow, out of range).
inline std::optional<u64> parse_uint(std::string_view s, u64 lo, u64 hi) {
    u64 v = 0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/// parse_uint for the value `s` of `flag`; says on stderr why a refused
/// value is refused.
inline std::optional<u64> flag_uint(const char* flag, std::string_view s,
                                    u64 lo, u64 hi) {
    if (const auto v = parse_uint(s, lo, hi)) return v;
    std::fprintf(stderr, "%s expects an integer in [%llu, %llu], got '%.*s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi),
                 static_cast<int>(s.size()), s.data());
    return std::nullopt;
}

}  // namespace recoil::cli

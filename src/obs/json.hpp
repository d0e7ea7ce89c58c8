#pragma once
// Text formatting shared by the obs JSON exporters (MetricsSnapshot::to_json
// and SlowRequestLog::to_json); defined in metrics.cpp. Not part of the obs
// API: only src/obs/ sources include it.

#include <string>

#include "util/ints.hpp"

namespace recoil::obs {

std::string fmt_u64(u64 v);        ///< decimal
std::string fmt_double(double v);  ///< "%.9g"
/// `s` escaped for use inside a JSON string: quotes, backslashes and
/// control characters.
std::string json_escape(const std::string& s);

}  // namespace recoil::obs

// JSON string escaping shared by the report writers (BENCH_*.json and
// `omflp sweep --json`).
#pragma once

#include <string>

namespace omflp {

/// The body of a JSON string literal (no surrounding quotes): '"' and
/// '\' are backslash-escaped, control bytes become \u00xx, every other
/// byte is copied verbatim.
std::string json_escape(const std::string& text);

}  // namespace omflp

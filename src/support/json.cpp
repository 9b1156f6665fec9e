#include "support/json.hpp"

#include <cstdio>

namespace omflp {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(ch));
      out += buffer;
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

}  // namespace omflp

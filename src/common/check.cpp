#include "common/check.h"

#include <string_view>

namespace turret::detail {
namespace {

/// `file` from its last `src/` path component on, so messages (which reach
/// search artifacts as quarantine errors) never embed the checkout path.
/// Paths without such a component are returned whole.
std::string_view repo_relative(std::string_view file) {
  std::size_t pos = file.size();
  while ((pos = file.rfind("src/", pos)) != std::string_view::npos) {
    if (pos == 0 || file[pos - 1] == '/') return file.substr(pos);
    --pos;
  }
  return file;
}

}  // namespace

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  std::string what = "TURRET_CHECK failed: ";
  what += expr;
  what += " at ";
  what += repo_relative(file);
  what += ":";
  what += std::to_string(line);
  if (!msg.empty()) {
    what += " — ";
    what += msg;
  }
  throw std::logic_error(what);
}

}  // namespace turret::detail

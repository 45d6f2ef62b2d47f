// The host and build record every benchmark result carries.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  unsigned nproc = 1;  ///< threads this process may run on (sched affinity)
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool optimized = false;
  bool sanitized = false;
  bool coverage = false;
  /// False for sanitizer, coverage or unoptimized builds, whose timings are
  /// not performance results.
  bool build_valid = false;
};

HostInfo host_info();

}  // namespace perfbench

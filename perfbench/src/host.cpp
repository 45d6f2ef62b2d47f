#include "host.h"

#include <sched.h>

#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr std::string_view kFlags = PERFBENCH_CXX_FLAGS;

bool flag_present(std::string_view needle) {
  return kFlags.find(needle) != std::string_view::npos;
}

bool sanitized() { return kSanitized || flag_present("-fsanitize"); }

bool coverage() {
  return flag_present("--coverage") || flag_present("-fprofile-arcs");
}

// The brand string straight from the processor, so the record needs no
// file outside the checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  h.cpu_model = cpu_model();
  h.compiler = __VERSION__;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.cxx_flags = std::string(kFlags);
  h.optimized = kOptimized;
  h.sanitized = sanitized();
  h.coverage = coverage();
  h.build_valid = h.optimized && !h.sanitized && !h.coverage;
  return h;
}

}  // namespace perfbench

#include "simd/caps.h"

#include "simd/arch.h"
#include "util/env.h"

namespace mpsm::simd {

const Caps& DetectCaps() {
  static const Caps caps = [] {
    Caps c;
#if MPSM_SIMD_X86
    __builtin_cpu_init();
    c.avx2 = __builtin_cpu_supports("avx2");
    c.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return c;
  }();
  return caps;
}

SimdKind Resolve(SimdKind kind) {
  // CI / debugging escape hatch: MPSM_SIMD=scalar forces every kernel
  // to its scalar path without touching any knob (read once, cached).
  static const std::optional<SimdKind> env_kind = [] {
    const auto value = GetEnv("MPSM_SIMD");
    return value.has_value() ? ParseSimdKind(*value) : std::nullopt;
  }();
  if (env_kind.has_value()) kind = *env_kind;

  const Caps& caps = DetectCaps();
  if (kind == SimdKind::kAuto) kind = SimdKind::kAvx512;
  // Degrade an unexecutable kind to the widest narrower one.
  if (kind == SimdKind::kAvx512 && !caps.avx512f) kind = SimdKind::kAvx2;
  if (kind == SimdKind::kAvx2 && !caps.avx2) kind = SimdKind::kScalar;
  return kind;
}

uint32_t KeysPerCompare(SimdKind resolved) {
  switch (resolved) {
    case SimdKind::kScalar:
      return 1;
    case SimdKind::kAvx2:
      return 4;
    case SimdKind::kAvx512:
      return 8;
    case SimdKind::kAuto:
      return KeysPerCompare(Resolve(SimdKind::kAuto));
  }
  return 1;
}

std::vector<SimdKind> SupportedKinds() {
  const Caps& caps = DetectCaps();
  std::vector<SimdKind> kinds{SimdKind::kScalar};
  if (caps.avx2) kinds.push_back(SimdKind::kAvx2);
  if (caps.avx512f) kinds.push_back(SimdKind::kAvx512);
  return kinds;
}

}  // namespace mpsm::simd

#include "simd/simd_kind.h"

namespace mpsm::simd {

const char* SimdKindName(SimdKind kind) {
  switch (kind) {
    case SimdKind::kScalar:
      return "scalar";
    case SimdKind::kAvx2:
      return "avx2";
    case SimdKind::kAvx512:
      return "avx512";
    case SimdKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<SimdKind> ParseSimdKind(std::string_view name) {
  if (name == "scalar") return SimdKind::kScalar;
  if (name == "avx2") return SimdKind::kAvx2;
  if (name == "avx512") return SimdKind::kAvx512;
  if (name == "auto") return SimdKind::kAuto;
  return std::nullopt;
}

}  // namespace mpsm::simd

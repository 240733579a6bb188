#include "obs/metrics.h"

#include <cstdlib>

namespace symple {
namespace obs {

bool Enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SYMPLE_OBS_DISABLE");
    return env == nullptr || env[0] == '\0' || env[0] == '0';
  }();
  return enabled;
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q <= 0) {
    return min;
  }
  if (q >= 1) {
    return max;
  }
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const uint64_t upper = HistogramBucketUpper(i);
      return upper < max ? upper : max;
    }
  }
  return max;
}

}  // namespace obs
}  // namespace symple

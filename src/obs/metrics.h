// Log2-bucket histograms for the per-task distributions in a RunReport, and
// the process-wide observability switch.
//
//  - Histograms use 66 fixed buckets: bucket 0 holds the value 0, bucket k
//    holds values with bit-width k (i.e. [2^(k-1), 2^k)), bucket 65 holds the
//    top of the u64 range. Quantiles are estimated at bucket upper bounds —
//    at most 2x off, which is the standard trade for O(1) recording. Exact
//    `max` and `sum` are kept alongside.
//  - Observability can be disabled at startup with SYMPLE_OBS_DISABLE=1
//    (checked once).
#ifndef SYMPLE_OBS_METRICS_H_
#define SYMPLE_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>

namespace symple {
namespace obs {

// True unless SYMPLE_OBS_DISABLE=1 was set when the process first asked.
bool Enabled();

// --- Histogram -----------------------------------------------------------------

inline constexpr size_t kHistogramBuckets = 66;

// Bucket index for a value: 0 for 0, otherwise the value's bit width.
inline size_t HistogramBucket(uint64_t v) {
  if (v == 0) {
    return 0;
  }
  return static_cast<size_t>(64 - __builtin_clzll(v));
}

// Inclusive upper bound of a bucket (used for quantile estimates).
inline uint64_t HistogramBucketUpper(size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  if (bucket >= 64) {
    return ~0ull;
  }
  return (1ull << bucket) - 1;
}

// A single-threaded histogram accumulator: the engines keep one per task,
// and RunObserver merges them into the run's distributions.
struct HistogramSnapshot {
  uint64_t buckets[kHistogramBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // exact; meaningful when count > 0
  uint64_t max = 0;  // exact

  void Record(uint64_t v) {
    ++buckets[HistogramBucket(v)];
    if (count == 0 || v < min) {
      min = v;
    }
    if (v > max) {
      max = v;
    }
    ++count;
    sum += v;
  }

  void Merge(const HistogramSnapshot& o) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] += o.buckets[i];
    }
    if (o.count > 0) {
      if (count == 0 || o.min < min) {
        min = o.min;
      }
      if (o.max > max) {
        max = o.max;
      }
    }
    count += o.count;
    sum += o.sum;
  }

  double Mean() const { return count == 0 ? 0 : static_cast<double>(sum) / count; }

  // Value at quantile q in [0,1], estimated as the upper bound of the bucket
  // containing the q-th ordered sample (clamped by the exact max).
  uint64_t Quantile(double q) const;
};

}  // namespace obs
}  // namespace symple

#endif  // SYMPLE_OBS_METRICS_H_

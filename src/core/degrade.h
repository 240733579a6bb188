// Symbolic→concrete degradation vocabulary.
//
// SYMPLE's escape hatch (paper Section 5.2): when symbolic execution of a
// map segment hits a declared limitation — path explosion, coefficient
// overflow, an unsupported operation or a resource budget — or its summary
// fails validation at the reducer, the engine does not abort the query. The
// segment degrades to a DeferredConcrete marker (or, at the reducer, straight
// to replay) and the reducer replays it concretely from the already-composed
// prefix state, preserving exact sequential semantics. Lost map output — a
// crashed or corrupting forked worker — is re-executed instead, never
// degraded. This header names the reasons a segment can degrade and maps the
// error taxonomy (common/error.h) onto them.
#ifndef SYMPLE_CORE_DEGRADE_H_
#define SYMPLE_CORE_DEGRADE_H_

#include <cstddef>
#include <cstdint>

#include "common/error.h"

namespace symple {

// Why a map segment fell back to concrete replay. Values are part of the
// deferred-segment wire encoding — append only, never renumber.
enum class DegradeReason : uint8_t {
  kForced = 0,          // --force-degrade test hook
  kPathExplosion = 1,   // per-record/per-run decision bound exceeded
  kPathBudget = 2,      // EngineOptions max_paths_per_segment exceeded
  kSummaryBytes = 3,    // EngineOptions max_summary_bytes_per_segment exceeded
  kOverflow = 4,        // SymInt/affine coefficient overflow
  kUnsupportedOp = 5,   // SymPred registry miss or similar
  kWireCorrupt = 6,     // packet blob failed the reducer's validation
  kOther = 7,           // any other SympleError caught at segment granularity
  kMemoryBudget = 8,    // a group's summaries failed to finish or serialize
                        // at a memory-budget flush (docs/spill.md)
};

inline constexpr size_t kDegradeReasonCount = 9;

// Stable snake_case names used in RunReport JSON, metrics, and trace spans.
inline const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kForced:
      return "forced";
    case DegradeReason::kPathExplosion:
      return "path_explosion";
    case DegradeReason::kPathBudget:
      return "path_budget";
    case DegradeReason::kSummaryBytes:
      return "summary_bytes";
    case DegradeReason::kOverflow:
      return "overflow";
    case DegradeReason::kUnsupportedOp:
      return "unsupported_op";
    case DegradeReason::kWireCorrupt:
      return "wire_corrupt";
    case DegradeReason::kOther:
      return "other";
    case DegradeReason::kMemoryBudget:
      return "memory_budget";
  }
  return "other";
}

// Maps a caught error to the degrade reason it represents. Order matters:
// SympleWireError derives from SympleIoError derives from SympleError.
inline DegradeReason ClassifyDegradeError(const SympleError& e) {
  if (dynamic_cast<const SympleOverflowError*>(&e) != nullptr) {
    return DegradeReason::kOverflow;
  }
  if (dynamic_cast<const SymplePathExplosionError*>(&e) != nullptr) {
    return DegradeReason::kPathExplosion;
  }
  if (dynamic_cast<const SympleUnsupportedOpError*>(&e) != nullptr) {
    return DegradeReason::kUnsupportedOp;
  }
  if (dynamic_cast<const SympleWireError*>(&e) != nullptr) {
    return DegradeReason::kWireCorrupt;
  }
  return DegradeReason::kOther;
}

}  // namespace symple

#endif  // SYMPLE_CORE_DEGRADE_H_

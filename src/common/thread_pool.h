// Fork-join and work-claiming primitives for the runtime's parallel stages.
//
// Each parallel stage of a run (src/runtime/engine.h) — the input index, the
// morsel-driven map, the partition merge and the largest-first reduce — is
// one RunWorkers call whose width, at most the stage's item count, plays the
// role of the machines/cores available (Section 6.2's "1/2/4 mappers" axis).
// Workers claim items from a WorkCursor or, in the map stage, from
// StealingIndexQueues. No thread outlives its stage, so none is alive when a
// forked engine calls fork().
#ifndef SYMPLE_COMMON_THREAD_POOL_H_
#define SYMPLE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace symple {

// Runs worker(w) for every w in [0, width) — at least one worker — each on its
// own thread, the calling thread being worker 0, and returns once every one
// has returned. Only then does it rethrow what a worker threw: the lowest
// worker's exception, a SympleError as SympleIoError("<stage> failed: ..."),
// anything else unchanged. A failing worker therefore never reaches
// std::terminate, and the stage's other workers finish first.
void RunWorkers(size_t width, std::string_view stage,
                const std::function<void(size_t)>& worker);

// A claim counter shared by a stage's workers: Next hands out every index of
// [0, n) exactly once, in increasing order, then returns false.
class WorkCursor {
 public:
  explicit WorkCursor(size_t n) : n_(n) {}

  bool Next(size_t* index) {
    *index = next_.fetch_add(1, std::memory_order_relaxed);
    return *index < n_;
  }

 private:
  const size_t n_;
  std::atomic<size_t> next_{0};
};

// Per-worker deques of work-item indexes with stealing, the substrate of the
// morsel-driven map scheduler (docs/scheduling.md). Each worker owns one deque
// and pops from its FRONT, so the items a queue was seeded with run in seed
// order as long as nobody interferes; an idle worker steals from the BACK of
// another worker's deque, taking the work its owner is furthest from reaching.
// Items are plain size_t indexes into a caller-owned array, which keeps the
// queues trivially copy-free and lets one structure serve any payload type.
//
// Every deque is guarded by its own mutex rather than a lock-free chase-lev
// ring: morsels are thousands of records each, so queue traffic is a few
// thousand transfers per run and an uncontended lock is nowhere near the
// profile. Correct-and-simple wins until the profiler disagrees.
class StealingIndexQueues {
 public:
  explicit StealingIndexQueues(size_t num_queues);

  StealingIndexQueues(const StealingIndexQueues&) = delete;
  StealingIndexQueues& operator=(const StealingIndexQueues&) = delete;

  // Appends `item` to `queue`'s deque. Thread-safe, though typical use seeds
  // every queue before the workers start.
  void Push(size_t queue, size_t item);

  // Owner path: takes the front item of `queue`. Returns false if empty.
  bool PopLocal(size_t queue, size_t* item);

  // Thief path: scans the other queues (starting after `thief`, wrapping) and
  // takes the BACK item of the first non-empty one. Returns false only when
  // every queue was observed empty; bumps the steal counter on success.
  bool Steal(size_t thief, size_t* item);

  // Owner-or-thief convenience: PopLocal, then Steal. Sets *stolen.
  bool Next(size_t worker, size_t* item, bool* stolen);

  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  size_t num_queues() const { return queues_.size(); }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<size_t> items;
  };
  std::vector<std::unique_ptr<Queue>> queues_;
  std::atomic<uint64_t> steals_{0};
};

}  // namespace symple

#endif  // SYMPLE_COMMON_THREAD_POOL_H_

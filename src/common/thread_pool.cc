#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "common/error.h"

namespace symple {

void RunWorkers(size_t width, std::string_view stage,
                const std::function<void(size_t)>& worker) {
  width = std::max<size_t>(width, 1);
  std::vector<std::exception_ptr> errors(width);
  const auto run = [&worker, &errors](size_t w) {
    try {
      worker(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    // A jthread joins when destroyed, so every started worker is joined even
    // when a later spawn throws.
    std::vector<std::jthread> threads;
    threads.reserve(width - 1);
    for (size_t w = 1; w < width; ++w) {
      threads.emplace_back(run, w);
    }
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      try {
        std::rethrow_exception(error);
      } catch (const SympleError& e) {
        throw SympleIoError(std::string(stage) + " failed: " + e.what());
      }
    }
  }
}

StealingIndexQueues::StealingIndexQueues(size_t num_queues) {
  if (num_queues == 0) {
    num_queues = 1;
  }
  queues_.reserve(num_queues);
  for (size_t i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
}

void StealingIndexQueues::Push(size_t queue, size_t item) {
  Queue& q = *queues_[queue % queues_.size()];
  std::lock_guard<std::mutex> lock(q.mu);
  q.items.push_back(item);
}

bool StealingIndexQueues::PopLocal(size_t queue, size_t* item) {
  Queue& q = *queues_[queue % queues_.size()];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.items.empty()) {
    return false;
  }
  *item = q.items.front();
  q.items.pop_front();
  return true;
}

bool StealingIndexQueues::Steal(size_t thief, size_t* item) {
  const size_t n = queues_.size();
  for (size_t off = 1; off <= n; ++off) {
    Queue& q = *queues_[(thief + off) % n];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.items.empty()) {
      continue;
    }
    *item = q.items.back();
    q.items.pop_back();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool StealingIndexQueues::Next(size_t worker, size_t* item, bool* stolen) {
  if (PopLocal(worker, item)) {
    *stolen = false;
    return true;
  }
  if (Steal(worker, item)) {
    *stolen = true;
    return true;
  }
  return false;
}

}  // namespace symple

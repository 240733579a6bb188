#include "bench/e2e/e2e.h"

#include <algorithm>
#include <map>

namespace symple::e2e {

void WorkloadResult::Add(std::string metric_name, double value, std::string unit,
                         const std::vector<double>& samples) {
  Metric m;
  m.name = std::move(metric_name);
  m.value = value;
  m.unit = std::move(unit);
  if (!samples.empty()) {
    m.spread = RelativeSpread(samples);
    m.samples = samples.size();
  }
  metrics.push_back(std::move(m));
}

void WorkloadResult::Fail(std::string message) {
  ++failed;
  errors.push_back(std::move(message));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double RelativeSpread(const std::vector<double>& v) {
  const double median = Quantile(v, 0.5);
  return median > 0 ? (Quantile(v, 0.75) - Quantile(v, 0.25)) / median : 0;
}

namespace {
uint64_t g_next_span_id = 0;
uint32_t g_next_trace_pid = 100;
}  // namespace

Span::Span(obs::Tracer* tracer, std::string name, uint64_t parent)
    : id_(++g_next_span_id), span_(tracer, std::move(name), "bench", kBenchPid, 0) {
  span_.AddArg("id", id_);
  span_.AddArg("parent", parent);
}

uint32_t NextTracePid() { return g_next_trace_pid++; }

std::vector<std::pair<std::string, double>> SelfTimeUs(const obs::Tracer& tracer,
                                                       uint64_t root) {
  struct Node {
    const obs::TraceSpan* span = nullptr;
    uint64_t parent = 0;
    double child_us = 0;
  };
  const std::vector<obs::TraceSpan> spans = tracer.Spans();
  std::map<uint64_t, Node> nodes;
  for (const obs::TraceSpan& s : spans) {
    if (s.pid != kBenchPid) {
      continue;
    }
    Node n;
    n.span = &s;
    uint64_t id = 0;
    for (const auto& [key, value] : s.args) {
      if (key == "id") {
        id = value;
      } else if (key == "parent") {
        n.parent = value;
      }
    }
    nodes[id] = n;
  }
  for (const auto& [id, n] : nodes) {
    const auto parent = nodes.find(n.parent);
    if (parent != nodes.end()) {
      parent->second.child_us += n.span->duration_us;
    }
  }
  const auto under_root = [&](uint64_t id) {
    for (auto it = nodes.find(id); it != nodes.end(); it = nodes.find(it->second.parent)) {
      if (it->second.parent == root) {
        return true;
      }
    }
    return false;
  };
  std::map<std::string, double> by_name;
  for (const auto& [id, n] : nodes) {
    if (under_root(id)) {
      by_name[n.span->name] += n.span->duration_us - n.child_us;
    }
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace symple::e2e

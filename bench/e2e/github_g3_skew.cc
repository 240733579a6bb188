// github-g3-skew: G3 over github JSON with 512-byte filler, re-split so one
// segment holds ~45% of the records. Parse dominates the map, with moderate
// symbolic work and path merging; the straggler segment makes map
// scheduling matter. Spill does nothing and reduce little.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "queries/github_queries.h"
#include "workloads/github_gen.h"

namespace symple::e2e {
namespace {

constexpr double kHotFraction = 0.45;
constexpr size_t kSegments = 16;

// Re-splits one blob of records into kSegments segments: segment 0 takes
// kHotFraction of the records, the others share the rest evenly.
Dataset SkewedLayout(const std::string& blob) {
  std::vector<size_t> ends;  // byte offset just past each record
  for (size_t nl = blob.find('\n'); nl != std::string::npos; nl = blob.find('\n', nl + 1)) {
    ends.push_back(nl + 1);
  }
  const size_t n = ends.size();
  const size_t hot = static_cast<size_t>(static_cast<double>(n) * kHotFraction);
  const auto cut = [&](size_t s) {  // first record of segment s
    return s == 0 ? 0 : hot + (n - hot) * (s - 1) / (kSegments - 1);
  };
  const auto offset = [&](size_t record) { return record == 0 ? 0 : ends[record - 1]; };
  Dataset out;
  for (size_t s = 0; s < kSegments; ++s) {
    const size_t begin = offset(cut(s));
    out.segments.push_back(blob.substr(begin, offset(cut(s + 1)) - begin));
  }
  return out;
}

Dataset MakeData(uint64_t seed, double scale) {
  GithubGenParams p;
  p.seed += seed;
  p.num_records = static_cast<size_t>(120000 * scale);
  p.num_segments = 1;
  p.num_repos = 8000;
  p.filler_bytes = 512;
  p.popularity_skew = 4.0;
  return SkewedLayout(GenerateGithubLog(p).segments.front());
}

std::string Guard(const Dataset& data, const EngineStats& oracle, const EngineStats&) {
  const std::string& hot = data.segments.front();
  const double share = static_cast<double>(std::count(hot.begin(), hot.end(), '\n')) /
                       static_cast<double>(std::max<uint64_t>(1, oracle.input_records));
  if (share < 0.40) {
    return "the hot segment holds " + std::to_string(share * 100) +
           "% of the records (< 40%)";
  }
  return "";
}

}  // namespace

WorkloadResult RunGithubG3Skew(const RunConfig& cfg, uint64_t parent_span) {
  static const WorkloadSpec spec{"github-g3-skew", 0, &MakeData, &Guard};
  return RunWorkload<G3PullWindowOps>(cfg, spec, parent_span);
}

}  // namespace symple::e2e

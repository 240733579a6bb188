// symple_e2e: measured end-to-end walls for all five engines on four
// workloads, per-layer numbers from a traced pass, and a compare mode that
// gates a candidate run against a base run with the bounds in BENCHMARK.json.
//
//   symple_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//              [--out run.json] [--trace-out trace.json]
//   symple_e2e --smoke [--out smoke.json]    (1/10 size, three rounds)
//   symple_e2e --compare base.json cand.json
//
// Every metric prints as `workload name value unit`. The last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1, both without --trace. Exit status is 1 when any engine run
// or probe failed, when a workload guard tripped, or when a compare found a
// regression.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace symple::e2e {
namespace {

struct Declared {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;  // end-to-end metrics only
};

struct Declarations {
  std::vector<Declared> end_to_end;
  std::vector<Declared> per_layer;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool ParseFile(const std::string& path, obs::JsonValue* out) {
  std::string text;
  std::string error;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  if (!obs::ParseJson(text, out, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool LoadDeclarations(Declarations* out) {
  obs::JsonValue doc;
  if (!ParseFile(SYMPLE_E2E_BENCHMARK_JSON, &doc)) {
    return false;
  }
  const auto load = [](const obs::JsonValue* list, std::vector<Declared>* into) {
    if (list == nullptr || !list->is_array()) {
      return false;
    }
    for (const obs::JsonValue& m : list->array) {
      const obs::JsonValue* name = m.Find("name");
      const obs::JsonValue* unit = m.Find("unit");
      const obs::JsonValue* better = m.Find("better");
      if (name == nullptr || unit == nullptr || better == nullptr) {
        return false;
      }
      Declared d;
      d.name = name->string_value;
      d.unit = unit->string_value;
      d.lower_is_better = better->string_value == "lower";
      if (const obs::JsonValue* bound = m.Find("bound")) {
        d.bound = bound->number;
      }
      into->push_back(std::move(d));
    }
    return true;
  };
  if (!load(doc.Find("end_to_end"), &out->end_to_end) ||
      !load(doc.Find("per_layer"), &out->per_layer)) {
    std::fprintf(stderr, "error: malformed metric lists in %s\n", SYMPLE_E2E_BENCHMARK_JSON);
    return false;
  }
  return true;
}

// Shortest decimal that round-trips: the result line carries every digit
// measured (obs::JsonWriter rounds doubles to three decimals).
std::string ExactNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string RunJson(const RunConfig& cfg, long nproc, bool smoke,
                    const std::vector<WorkloadResult>& results) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "symple.e2e/1");
  w.KV("seed", cfg.seed);
  w.KV("seconds", cfg.seconds);
  w.KV("scale", cfg.scale);
  w.KV("smoke", smoke);
  w.KV("traced", cfg.tracer != nullptr);
  w.KV("nproc", static_cast<int64_t>(nproc));
  w.KV("slots", static_cast<uint64_t>(cfg.slots));
  w.KV("setup_reps", cfg.setup_reps);
  w.Key("workloads").BeginObject();
  for (const WorkloadResult& r : results) {
    w.Key(r.name).BeginObject();
    w.KV("rounds", static_cast<uint64_t>(r.rounds));
    w.KV("attempted", r.attempted);
    w.KV("failed", r.failed);
    w.KV("error_rate", r.error_rate());
    w.Key("errors").BeginArray();
    for (const std::string& e : r.errors) {
      w.String(e);
    }
    w.EndArray();
    w.Key("metrics").BeginObject();
    for (const Metric& m : r.metrics) {
      w.Key(m.name).BeginObject();
      w.KV("value", m.value);
      w.KV("unit", m.unit);
      w.KV("spread", m.spread);
      w.KV("samples", static_cast<uint64_t>(m.samples));
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string ResultLine(const std::vector<WorkloadResult>& results,
                       const std::set<std::string>& selected) {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const WorkloadResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const WorkloadResult& r : results) {
    for (const Metric& m : r.metrics) {
      if (selected.count(m.name) == 0) {
        continue;
      }
      out += first ? "" : ", ";
      first = false;
      obs::JsonWriter::AppendEscaped(out, results.size() > 1 ? r.name + "/" + m.name : m.name);
      out += ": {\"value\": " + ExactNumber(m.value) + ", \"unit\": ";
      obs::JsonWriter::AppendEscaped(out, m.unit);
      out += "}";
    }
  }
  out += "}}";
  return out;
}

// --smoke: every declared metric is emitted for every workload, is a finite
// number, no undeclared metric is emitted, and every run matched the oracle.
bool CheckSmoke(const std::string& json, const Declarations& decl) {
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(json, &doc, &error)) {
    std::fprintf(stderr, "smoke: run JSON does not parse: %s\n", error.c_str());
    return false;
  }
  std::map<std::string, std::string> expected;
  for (const auto* list : {&decl.end_to_end, &decl.per_layer}) {
    for (const Declared& d : *list) {
      expected[d.name] = d.unit;
    }
  }
  bool ok = true;
  const obs::JsonValue* workloads = doc.Find("workloads");
  for (const Workload& wl : kWorkloads) {
    const obs::JsonValue* r = workloads != nullptr ? workloads->Find(wl.name) : nullptr;
    const obs::JsonValue* metrics = r != nullptr ? r->Find("metrics") : nullptr;
    if (metrics == nullptr) {
      std::fprintf(stderr, "smoke: %s: no metrics\n", wl.name);
      ok = false;
      continue;
    }
    const obs::JsonValue* failed = r->Find("failed");
    if (failed == nullptr || failed->number != 0) {
      std::fprintf(stderr, "smoke: %s: failed runs\n", wl.name);
      ok = false;
    }
    for (const auto& [name, unit] : expected) {
      const obs::JsonValue* m = metrics->Find(name);
      const obs::JsonValue* value = m != nullptr ? m->Find("value") : nullptr;
      const obs::JsonValue* got_unit = m != nullptr ? m->Find("unit") : nullptr;
      if (value == nullptr || !value->is_number() || got_unit == nullptr ||
          got_unit->string_value != unit) {
        std::fprintf(stderr, "smoke: %s: %s missing, not finite, or not in %s\n", wl.name,
                     name.c_str(), unit.c_str());
        ok = false;
      }
    }
    for (const auto& [name, value] : metrics->object) {
      if (expected.count(name) == 0) {
        std::fprintf(stderr, "smoke: %s: undeclared metric %s\n", wl.name, name.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

// --compare: one row per (workload, end-to-end metric). A metric is worse
// when it moved in its bad direction by more than its bound, and unresolved
// when the base's own spread across rounds already exceeds the bound.
int Compare(const std::string& base_path, const std::string& cand_path,
            const Declarations& decl) {
  obs::JsonValue base;
  obs::JsonValue cand;
  if (!ParseFile(base_path, &base) || !ParseFile(cand_path, &cand)) {
    return 2;
  }
  const obs::JsonValue* base_wl = base.Find("workloads");
  const obs::JsonValue* cand_wl = cand.Find("workloads");
  if (base_wl == nullptr || !base_wl->is_object()) {
    std::fprintf(stderr, "error: %s has no workloads\n", base_path.c_str());
    return 2;
  }
  const auto number = [](const obs::JsonValue* obj, const char* key, double* out) {
    const obs::JsonValue* v = obj != nullptr ? obj->Find(key) : nullptr;
    if (v == nullptr || !v->is_number()) {
      return false;
    }
    *out = v->number;
    return true;
  };
  int worse = 0;
  std::printf("%-16s %-30s %14s %14s %9s  %s\n", "workload", "metric", "base", "candidate",
              "delta", "verdict");
  for (const auto& [workload, b] : base_wl->object) {
    const obs::JsonValue* c = cand_wl != nullptr ? cand_wl->Find(workload) : nullptr;
    double base_errors = 0;
    double cand_errors = 0;
    number(&b, "error_rate", &base_errors);
    if (!number(c, "error_rate", &cand_errors) || cand_errors > base_errors) {
      std::printf("%-16s %-30s %14g %14g %9s  worse\n", workload.c_str(), "error_rate",
                  base_errors, cand_errors, "");
      ++worse;
    }
    for (const Declared& d : decl.end_to_end) {
      const obs::JsonValue* bm = b.Find("metrics") ? b.Find("metrics")->Find(d.name) : nullptr;
      const obs::JsonValue* cm =
          c != nullptr && c->Find("metrics") ? c->Find("metrics")->Find(d.name) : nullptr;
      double bv = 0;
      double cv = 0;
      double spread = 0;
      if (!number(bm, "value", &bv)) {
        continue;  // not measured in the base: nothing to hold the candidate to
      }
      number(bm, "spread", &spread);
      const char* verdict = "ok";
      double delta = 0;
      if (!number(cm, "value", &cv)) {
        verdict = "worse";  // a metric the candidate stopped emitting
      } else {
        delta = bv != 0 ? (cv - bv) / bv : (cv == 0 ? 0 : INFINITY);
        const double regression = d.lower_is_better ? delta : -delta;
        if (spread > d.bound) {
          verdict = "unresolved";
        } else if (regression > d.bound) {
          verdict = "worse";
        }
      }
      worse += std::strcmp(verdict, "worse") == 0 ? 1 : 0;
      std::printf("%-16s %-30s %14.3f %14.3f %+8.1f%%  %s\n", workload.c_str(), d.name.c_str(),
                  bv, cv, delta * 100, verdict);
    }
  }
  std::printf("%s\n", worse == 0 ? "compare: ok" : "compare: REGRESSION");
  return worse == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: symple_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n"
               "                  [--out run.json] [--trace-out trace.json] [--smoke]\n"
               "       symple_e2e --compare base.json cand.json\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  int trace = -1;  // unset: traced, both metric sets on the result line
  bool smoke = false;
  std::string out_path;
  std::string trace_path;
  std::vector<std::string> compare;
  std::set<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--compare" && i + 2 < argc) {
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]) != 0 ? 1 : 0;
    } else if (arg == "--workload" && has_value) {
      only.insert(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_path = argv[++i];
    } else {
      return Usage();
    }
  }

  Declarations decl;
  if (!LoadDeclarations(&decl)) {
    return 2;
  }
  if (!compare.empty()) {
    return Compare(compare[0], compare[1], decl);
  }
  for (const std::string& name : only) {
    if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const Workload& w) { return name == w.name; })) {
      std::fprintf(stderr, "error: unknown workload %s\n", name.c_str());
      return 2;
    }
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cfg.slots = static_cast<size_t>(std::clamp<long>(nproc, 1, 4));
  cfg.spill_dir = SYMPLE_E2E_SPILL_DIR;
  if (smoke) {
    // Below 1/10 the bing budget drops under the engines' fixed per-run
    // allocations, and the peak-under-budget guard cannot hold.
    cfg.scale = 1.0 / 10;
    cfg.seconds = 0;  // three rounds
    cfg.setup_reps = 1;
    trace = -1;
  }
  obs::Tracer tracer;
  tracer.NameProcess(kBenchPid, "symple_e2e");
  if (trace != 0) {
    cfg.tracer = &tracer;
  }

  std::vector<WorkloadResult> results;
  int status = 0;
  {
    Span root(cfg.tracer, "benchmark", 0);
    for (const Workload& wl : kWorkloads) {
      if (!only.empty() && only.count(wl.name) == 0) {
        continue;
      }
      WorkloadResult r = wl.run(cfg, root.id());
      if (!r.guard_error.empty()) {
        std::fprintf(stderr, "error: workload guard: %s\n", r.guard_error.c_str());
        return 1;
      }
      for (const Metric& m : r.metrics) {
        std::printf("%s %s %.6g %s\n", r.name.c_str(), m.name.c_str(), m.value, m.unit.c_str());
      }
      std::printf("%s error_rate %.6g failed/attempted (%llu/%llu, %zu rounds)\n",
                  r.name.c_str(), r.error_rate(), static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.attempted), r.rounds);
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "error: %s: %s\n", r.name.c_str(), e.c_str());
      }
      status = r.failed > 0 ? 1 : status;
      results.push_back(std::move(r));
    }
  }

  const std::string json = RunJson(cfg, nproc, smoke, results);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      status = 1;
    }
  }
  if (!trace_path.empty() && (cfg.tracer == nullptr || !tracer.WriteChromeTrace(trace_path))) {
    std::fprintf(stderr, "error: cannot write trace %s\n", trace_path.c_str());
    status = 1;
  }
  if (tracer.dropped() > 0) {
    std::fprintf(stderr, "warning: the trace ring dropped %llu spans\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
  if (smoke) {
    const bool ok = CheckSmoke(json, decl);
    std::printf("e2e smoke: %s\n", ok ? "ok" : "FAILED");
    status = ok ? status : 1;
  }

  std::set<std::string> selected;
  if (trace != 1) {
    for (const Declared& d : decl.end_to_end) {
      selected.insert(d.name);
    }
  }
  if (trace != 0) {
    for (const Declared& d : decl.per_layer) {
      selected.insert(d.name);
    }
  }
  std::printf("%s\n", ResultLine(results, selected).c_str());
  return status;
}

}  // namespace
}  // namespace symple::e2e

int main(int argc, char** argv) { return symple::e2e::Main(argc, argv); }

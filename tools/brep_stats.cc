/// brep_stats: observability tooling over the project's JSON artifacts.
///
///   brep_stats print <metrics.json>        pretty-print a metrics dump
///   brep_stats diff <old.json> <new.json>  numeric diff of two JSON files
///
/// `print` accepts the document obs::RenderJson emits (Index::Metrics()
/// serialized; see examples/observable_serving.cpp) and renders aligned
/// human tables; any other JSON document is pretty-printed generically, so
/// the same command inspects BENCH_*.json files. `diff` compares two JSON
/// documents leaf by leaf and reports numeric changes with relative deltas
/// -- the review tool for the checked-in perf trajectory:
///
///   $ ./brep_stats diff BENCH_kernels.json /tmp/BENCH_kernels.new.json
///
/// Exit codes: 0 success (diff: including "documents differ"), 1 usage,
/// 2 unreadable or malformed input.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "obs/exposition.h"

namespace {

using brep::json::Value;

bool LoadJson(const std::string& path, Value* out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "brep_stats: cannot read \"%s\"\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Value::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "brep_stats: \"%s\": %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = *std::move(parsed);
  return true;
}

std::string Num(const Value& v) {
  return v.is_number() ? brep::obs::FormatMetricNumber(v.number()) : "?";
}

double Field(const Value& hist, const char* key) {
  const Value* v = hist.Find(key);
  return v != nullptr && v->is_number() ? v->number() : 0.0;
}

/// True when `doc` looks like obs::RenderJson output.
bool IsMetricsDump(const Value& doc) {
  return doc.is_object() && doc.Find("counters") != nullptr &&
         doc.Find("gauges") != nullptr && doc.Find("histograms") != nullptr;
}

void PrintMetricsDump(const Value& doc) {
  if (const Value* counters = doc.Find("counters");
      counters != nullptr && counters->is_object() &&
      !counters->object().empty()) {
    std::printf("counters\n");
    for (const auto& [name, v] : counters->object()) {
      std::printf("  %-40s %s\n", name.c_str(), Num(v).c_str());
    }
  }
  if (const Value* gauges = doc.Find("gauges");
      gauges != nullptr && gauges->is_object() && !gauges->object().empty()) {
    std::printf("\ngauges\n");
    for (const auto& [name, v] : gauges->object()) {
      std::printf("  %-40s %s\n", name.c_str(), Num(v).c_str());
    }
  }
  if (const Value* hists = doc.Find("histograms");
      hists != nullptr && hists->is_object() && !hists->object().empty()) {
    std::printf("\nhistograms (ms)\n");
    std::printf("  %-34s %10s %10s %10s %10s %10s %10s\n", "", "count",
                "mean", "p50", "p90", "p99", "max");
    for (const auto& [name, h] : hists->object()) {
      if (!h.is_object()) continue;
      std::printf("  %-34s %10s %10.4g %10.4g %10.4g %10.4g %10.4g\n",
                  name.c_str(),
                  brep::obs::FormatMetricNumber(Field(h, "count")).c_str(),
                  Field(h, "mean_ms"), Field(h, "p50"), Field(h, "p90"),
                  Field(h, "p99"), Field(h, "max_ms"));
    }
  }
}

std::string Join(const std::string& prefix, const std::string& key) {
  return prefix.empty() ? key : prefix + "." + key;
}

std::string Brief(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      return "null";
    case Value::Type::kBool:
      return v.bool_value() ? "true" : "false";
    case Value::Type::kNumber:
      return Num(v);
    case Value::Type::kString:
      return "\"" + v.string() + "\"";
    case Value::Type::kArray:
      return "[array of " + std::to_string(v.array().size()) + "]";
    case Value::Type::kObject:
      return "{object with " + std::to_string(v.object().size()) + " keys}";
  }
  return "?";
}

/// Tally of a diff: `changed` covers values present in both documents,
/// `added`/`removed` cover keys or array slots present in only one -- an
/// expected state when a bench gains or loses an arm, so it is reported,
/// never an error.
struct DiffCounts {
  size_t changed = 0;
  size_t added = 0;
  size_t removed = 0;

  size_t Total() const { return changed + added + removed; }
};

void DiffValues(const std::string& path, const Value& a, const Value& b,
                DiffCounts* changes) {
  if (a.type() != b.type()) {
    std::printf("~ %-44s %s -> %s\n", path.c_str(), Brief(a).c_str(),
                Brief(b).c_str());
    ++changes->changed;
    return;
  }
  switch (a.type()) {
    case Value::Type::kNumber: {
      const double oldv = a.number();
      const double newv = b.number();
      if (oldv == newv) return;
      ++changes->changed;
      if (oldv != 0.0 && std::isfinite(oldv) && std::isfinite(newv)) {
        std::printf("~ %-44s %s -> %s  (%+.1f%%)\n", path.c_str(),
                    Num(a).c_str(), Num(b).c_str(),
                    (newv - oldv) / std::fabs(oldv) * 100.0);
      } else {
        std::printf("~ %-44s %s -> %s\n", path.c_str(), Num(a).c_str(),
                    Num(b).c_str());
      }
      return;
    }
    case Value::Type::kObject: {
      for (const auto& [key, av] : a.object()) {
        const Value* bv = b.Find(key);
        if (bv == nullptr) {
          std::printf("- %-44s %s\n", Join(path, key).c_str(),
                      Brief(av).c_str());
          ++changes->removed;
        } else {
          DiffValues(Join(path, key), av, *bv, changes);
        }
      }
      for (const auto& [key, bv] : b.object()) {
        if (a.Find(key) == nullptr) {
          std::printf("+ %-44s %s\n", Join(path, key).c_str(),
                      Brief(bv).c_str());
          ++changes->added;
        }
      }
      return;
    }
    case Value::Type::kArray: {
      const auto& av = a.array();
      const auto& bv = b.array();
      const size_t common = av.size() < bv.size() ? av.size() : bv.size();
      for (size_t i = 0; i < common; ++i) {
        DiffValues(path + "[" + std::to_string(i) + "]", av[i], bv[i],
                   changes);
      }
      for (size_t i = common; i < av.size(); ++i) {
        std::printf("- %-44s %s\n",
                    (path + "[" + std::to_string(i) + "]").c_str(),
                    Brief(av[i]).c_str());
        ++changes->removed;
      }
      for (size_t i = common; i < bv.size(); ++i) {
        std::printf("+ %-44s %s\n",
                    (path + "[" + std::to_string(i) + "]").c_str(),
                    Brief(bv[i]).c_str());
        ++changes->added;
      }
      return;
    }
    default: {
      const std::string oldv = Brief(a);
      const std::string newv = Brief(b);
      if (oldv != newv) {
        std::printf("~ %-44s %s -> %s\n", path.c_str(), oldv.c_str(),
                    newv.c_str());
        ++changes->changed;
      }
      return;
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  brep_stats print <metrics.json>\n"
               "  brep_stats diff <old.json> <new.json>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();

  if (std::strcmp(argv[1], "print") == 0) {
    if (argc != 3) return Usage();
    Value doc;
    if (!LoadJson(argv[2], &doc)) return 2;
    if (IsMetricsDump(doc)) {
      PrintMetricsDump(doc);
    } else {
      std::printf("%s\n", doc.Dump(2).c_str());
    }
    return 0;
  }

  if (std::strcmp(argv[1], "diff") == 0) {
    if (argc != 4) return Usage();
    Value a;
    Value b;
    if (!LoadJson(argv[2], &a) || !LoadJson(argv[3], &b)) return 2;
    DiffCounts changes;
    DiffValues("", a, b, &changes);
    if (changes.Total() == 0) {
      std::printf("no differences\n");
    } else {
      std::printf("\n%zu changed, %zu added, %zu removed\n",
                  changes.changed, changes.added, changes.removed);
    }
    return 0;
  }

  return Usage();
}

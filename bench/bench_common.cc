#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"
#include "common/rng.h"
#include "dataset/synthetic.h"
#include "divergence/factory.h"

namespace brep::bench {

double ScaleFactor() {
  const char* scale = std::getenv("BREP_SCALE");
  if (scale == nullptr) return 1.0;
  if (std::strcmp(scale, "small") == 0) return 0.4;
  if (std::strcmp(scale, "large") == 0) return 2.5;
  return 1.0;
}

size_t NumQueries() {
  return ScaleFactor() < 1.0 ? 10 : 20;
}

size_t ThreadsArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      BREP_CHECK_MSG(i + 1 < argc,
                     "--threads expects a value, e.g. --threads 4");
      size_t v = 0;
      BREP_CHECK_MSG(
          ParsePositiveSize(argv[i + 1], &v),
          "--threads expects a positive whole number (got a value with "
          "non-digit characters, empty, zero, or out of range)");
      return v;
    }
  }
  const char* env = std::getenv("BREP_THREADS");
  if (env != nullptr && env[0] != '\0') {
    size_t v = 0;
    BREP_CHECK_MSG(
        ParsePositiveSize(env, &v),
        "BREP_THREADS expects a positive whole number (got a value with "
        "non-digit characters, zero, or out of range)");
    return v;
  }
  return 0;
}

Workload MakeWorkload(const std::string& name, size_t n_override,
                      size_t d_override) {
  const double s = ScaleFactor();
  Workload w;
  w.name = name;
  Rng rng(0xB5EF0000 + std::hash<std::string>{}(name) % 1000);
  Rng qrng(0xC0FFEE00 + std::hash<std::string>{}(name) % 1000);

  auto scaled = [&](size_t base) {
    return n_override != 0 ? n_override
                           : std::max<size_t>(500, size_t(double(base) * s));
  };

  if (name == "Audio") {
    // Paper: 54387 x 192, ED, 32KB pages.
    const size_t d = d_override != 0 ? d_override : 192;
    w.data = MakeAudioLike(rng, scaled(5000), d);
    w.divergence =
        std::make_shared<BregmanDivergence>(MakeDivergence("exponential", d));
    w.page_size = 32 * 1024;
    w.measure = "ED";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1);
  } else if (name == "Fonts") {
    // Paper: 745000 x 400, ISD, 128KB pages.
    const size_t d = d_override != 0 ? d_override : 400;
    w.data = MakeFontsLike(rng, scaled(6000), d);
    w.divergence = std::make_shared<BregmanDivergence>(
        MakeDivergence("itakura_saito", d));
    w.page_size = 128 * 1024;
    w.measure = "ISD";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1, true);
  } else if (name == "Deep") {
    // Paper: 1000000 x 256, ED, 64KB pages.
    const size_t d = d_override != 0 ? d_override : 256;
    w.data = MakeDeepLike(rng, scaled(6000), d);
    w.divergence =
        std::make_shared<BregmanDivergence>(MakeDivergence("exponential", d));
    w.page_size = 64 * 1024;
    w.measure = "ED";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1);
  } else if (name == "Sift") {
    // Paper: 11164866 x 128, ED, 64KB pages.
    const size_t d = d_override != 0 ? d_override : 128;
    w.data = MakeSiftLike(rng, scaled(10000), d);
    w.divergence =
        std::make_shared<BregmanDivergence>(MakeDivergence("exponential", d));
    w.page_size = 64 * 1024;
    w.measure = "ED";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1);
  } else if (name == "Normal") {
    // Paper: 50000 x 200 normal data, ED, 32KB pages. A purely iid normal
    // sample carries no neighborhood structure at laptop scale (every
    // method degenerates to a scan), so the stand-in keeps normal
    // per-dimension marginals but adds mild mixture structure.
    const size_t d = d_override != 0 ? d_override : 200;
    EnergyProfileSpec spec;
    spec.n = scaled(4000);
    spec.d = d;
    spec.num_clusters = 25;
    spec.num_groups = std::max<size_t>(2, d / 16);
    spec.level_mean = -1.5;
    spec.level_std = 0.45;
    spec.group_noise = 0.12;
    spec.dim_noise = 0.10;
    spec.log_domain = true;
    w.data = MakeEnergyProfile(rng, spec);
    w.divergence =
        std::make_shared<BregmanDivergence>(MakeDivergence("exponential", d));
    w.page_size = 32 * 1024;
    w.measure = "ED";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1);
  } else if (name == "Uniform") {
    // Paper: 50000 x 200 uniform [0, 100], ISD, 32KB pages. Same note as
    // "Normal": mild cluster structure added, wide positive spread kept.
    const size_t d = d_override != 0 ? d_override : 200;
    EnergyProfileSpec spec;
    spec.n = scaled(4000);
    spec.d = d;
    spec.num_clusters = 25;
    spec.num_groups = std::max<size_t>(2, d / 16);
    spec.level_mean = 2.5;
    spec.level_std = 0.7;
    spec.profile_lo = 0.7;
    spec.profile_hi = 1.4;
    spec.group_noise = 0.15;
    spec.dim_noise = 0.12;
    spec.log_domain = false;
    w.data = MakeEnergyProfile(rng, spec);
    w.divergence = std::make_shared<BregmanDivergence>(
        MakeDivergence("itakura_saito", d));
    w.page_size = 32 * 1024;
    w.measure = "ISD";
    w.queries = MakeQueries(qrng, w.data, NumQueries(), 0.1, true);
  } else {
    BREP_CHECK_MSG(false, ("unknown workload: " + name).c_str());
  }
  return w;
}

std::vector<std::string> RealWorkloadNames() {
  return {"Audio", "Fonts", "Deep", "Sift"};
}

Backends MakeBackends(const Workload& w, const std::vector<std::string>& names,
                      const BackendOptions& options) {
  Backends out;
  out.pager = std::make_unique<MemPager>(w.page_size);
  for (const std::string& name : names) {
    auto engine =
        MakeSearchIndex(name, out.pager.get(), w.data, *w.divergence, options);
    BREP_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    out.engines.emplace_back(name, *std::move(engine));
  }
  return out;
}

std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      BREP_CHECK_MSG(i + 1 < argc,
                     "--json expects a path, e.g. --json BENCH_join.json");
      return argv[i + 1];
    }
  }
  return {};
}

void EmitJson(const std::string& path, const std::string& key,
              json::Value result) {
  json::Value root{json::Object{}};
  if (std::ifstream in(path); in.good()) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = json::Value::Parse(buffer.str());
    BREP_CHECK_MSG(parsed.ok(),
                   ("existing --json file does not parse: " +
                    parsed.status().ToString())
                       .c_str());
    BREP_CHECK_MSG(parsed->is_object(),
                   "existing --json file does not hold a JSON object");
    root = *std::move(parsed);
  }
  root.Set(key, std::move(result));
  std::ofstream out(path, std::ios::trunc);
  out << root.Dump(2) << "\n";
  BREP_CHECK_MSG(out.good(), ("cannot write --json file " + path).c_str());
  std::printf("\n[json] wrote section \"%s\" to %s\n", key.c_str(),
              path.c_str());
}

namespace {
void PrintCols(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%-14s", c.c_str());
  std::printf("\n");
}
}  // namespace

void PrintHeader(const std::vector<std::string>& cols) {
  PrintCols(cols);
  size_t width = cols.size() * 14;
  for (size_t i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cols) { PrintCols(cols); }

std::string FmtF(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtU(uint64_t v) { return std::to_string(v); }

}  // namespace brep::bench

// The repository benchmark's measuring program. Usually started through
// run.py, which builds it and hands it a work directory:
//
//   perfbench --workload knn_disk --seed 7 --seconds 10 --trace 0
//             --workdir .bench_build/work
//
// Prints a human-readable report and, as its last line, the JSON result.
// Exits 0 only when every checked answer matched the oracle.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

/// A whole decimal number, nothing else.
bool ParseU64(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <knn_disk|knn_batch|write_mix|"
               "join_l2> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      if (!perfbench::KnownWorkload(value)) return Usage("unknown workload");
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &n)) return Usage("--seed must be a whole number");
      config.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 3600) {
        return Usage("--seconds must be a whole number in [1, 3600]");
      }
      config.seconds = double(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.workdir.empty()) {
    return Usage("missing a required flag");
  }
  config.shape = perfbench::FullShape(config.workload);
  std::filesystem::create_directories(config.workdir);

  perfbench::Outcome outcome = perfbench::RunWorkload(config);
  outcome.meta.insert(
      outcome.meta.begin(),
      {{"nproc", std::to_string(std::thread::hardware_concurrency())},
       {"build_type", perfbench::BuildType()},
       {"seed", std::to_string(config.seed)}});
  perfbench::PrintReport(config, outcome);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

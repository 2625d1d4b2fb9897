// perfbench: the end-to-end benchmark of the block service and online
// migration (README.md beside this directory's CMakeLists.txt).
//
//   perfbench --workload <seq-stream|rand-rw|online-migrate>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and traced and prints the per-layer metrics. Every metric is
// printed as a "metric" line with its unit and sample count, and the
// last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// A correctness failure prints no result and exits 1.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <seq-stream|rand-rw|online-migrate>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny]\n");
}

bool parse(int argc, char** argv, pb::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_val) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_val) {
      o.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_val) {
      o.trace = std::stoi(argv[++i]) != 0;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

std::string json_number(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to run a non-optimised build (%s); "
               "configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  pb::Options o;
  try {
    if (!parse(argc, argv, o)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (o.tiny) pb::g_min_beyond = 0;
  // Every workload keeps four threads busy: its shards, its conversion
  // workers and the one generator thread.
  if (const long n = sysconf(_SC_NPROCESSORS_ONLN); n < 4) {
    std::fprintf(stderr,
                 "perfbench: warning: %ld CPUs online, the workloads keep 4 "
                 "threads busy; figures are not comparable\n",
                 n);
  }
  pb::Metrics m;
  pb::Tally t;
  std::string config;
  try {
    if (o.workload == "seq-stream") {
      t = pb::run_seq_stream(o, m, config);
    } else if (o.workload == "rand-rw") {
      t = pb::run_rand_rw(o, m, config);
    } else if (o.workload == "online-migrate") {
      t = pb::run_online_migrate(o, m, config);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      usage();
      return 2;
    }
  } catch (const pb::Mismatch& e) {
    std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
  std::printf("config %s\n", config.c_str());
  std::printf("fail_frac %.17g (%llu of %llu attempted)\n",
              t.attempted ? double(t.failed) / double(t.attempted) : 0.0,
              (unsigned long long)t.failed, (unsigned long long)t.attempted);
  std::string js = "{\"correct\": true, \"attempted\": " +
                   std::to_string(t.attempted) +
                   ", \"failed\": " + std::to_string(t.failed) +
                   ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m.all()) {
    std::printf("metric %-40s %14.4f %-6s %s\n", name.c_str(), v.value,
                v.unit.c_str(), v.note.c_str());
    js += (first ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
          json_number(v.value) + ", \"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}

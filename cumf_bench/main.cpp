// cumf_bench: the repository benchmark program.
//
// Runs one named workload per process, prints every metric by name with its
// unit, checks that the program's outputs are correct, and ends its output
// with the result as one JSON line. Exits 1 when a check failed and 2 on a
// usage or runtime error. run.py builds this program, runs it and selects
// the end-to-end or per-layer metrics; see README.md.
//
//   cumf_bench --workload NAME --seed S --seconds T --work DIR [--trace DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using cumf::bench::Report;
using cumf::bench::RunOptions;

struct Workload {
  const char* name;
  void (*run)(const RunOptions&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"als-netflix", cumf::bench::run_als_netflix},
    {"als-hugewiki-4gpu", cumf::bench::run_als_hugewiki},
    {"serve-catalog", cumf::bench::run_serve_catalog},
    {"serve-retrain", cumf::bench::run_serve_retrain},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed S --seconds T --work DIR "
               "[--trace DIR]\nworkloads:",
               argv0);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--work") {
      opt.work_dir = value;
    } else if (flag == "--trace") {
      opt.trace_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage(argv[0]);
  }
  for (const auto& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    Report rep;
    try {
      w.run(opt, rep);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cumf_bench: %s: %s\n", w.name, e.what());
      return 2;
    }
    rep.print(opt);
    return rep.correct() ? 0 : 1;
  }
  return usage(argv[0]);
}

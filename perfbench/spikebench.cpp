// The benchmark binary. Prints one JSON record of raw samples on stdout;
// perfbench/run.py builds this program, runs it and turns the record into
// the named metrics of BENCHMARK.json.
//
//   spikebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// Exit codes: 0 = ran and every output check passed, 1 = ran but a check
// failed (the record is still printed), 2 = bad arguments or a crash.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
// Defines the counting operator new/delete: include from this one file only.
#include "bench/alloc_hook.hpp"

std::size_t perfbench::heap_allocs() {
  return spikestream::alloc_hook::allocs();
}

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val);
      } else if (key == "--out-dir") {
        args.out_dir = val;
      } else {
        throw std::invalid_argument("unknown option " + key);
      }
    }
    if (argc % 2 == 0) throw std::invalid_argument("option without a value");
    if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
    const perfbench::Workload w = perfbench::workload_by_name(args.workload);
    return args.trace ? perfbench::run_traced(args, w)
                      : perfbench::run_timed(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spikebench: %s\n", e.what());
    return 2;
  }
}

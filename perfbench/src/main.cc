// perfbench: the repository benchmark binary. run.py builds and invokes it:
//
//   perfbench --workload analytics|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// The last line of standard output is the JSON result; the human-readable
// report goes to standard error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return perfbench::RunBenchmark(options);
}

// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Workloads: multinet-ios, bignet-mixed, daemon-tenants (see
// BENCHMARK.json for why each exists). --trace 0 measures the end-to-end
// metrics with no obs::Hooks installed; --trace 1 replays the workload
// layer by layer and reports the per-layer metrics. Either way the last
// stdout line is the JSON result; the exit code is 0 only when every
// output check passed.
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::cerr << "perfbench: --work-dir and a positive --seconds required\n";
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  Result result;
  try {
    if (options.workload == "multinet-ios") {
      RunMultinetIos(options, result);
    } else if (options.workload == "bignet-mixed") {
      RunBignetMixed(options, result);
    } else if (options.workload == "daemon-tenants") {
      RunDaemonTenants(options, result);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  PrintResult(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}

// report_lint: validates a machine-readable report emitted by this repo —
// a bench --json document or a MarketSimulation RunReport — using the same
// schema checks the gtest suite runs (obs/run_report.h). Lets ctest verify
// bench JSON end to end with no python dependency.
//
//   report_lint --bench <file.json>   validate a bench report
//   report_lint --run <file.json>     validate a run report
//   report_lint --claims <file.json>  validate a bench report and check
//                                     its figure's paper claim
//                                     (obs::CheckBenchClaims)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/run_report.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: report_lint --bench <file.json> | "
                 "--run <file.json> | --claims <file.json>\n");
    return 2;
  }
  const std::string mode = argv[1];
  const std::string path = argv[2];
  if (mode != "--bench" && mode != "--run" && mode != "--claims") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const dsm::Status status =
      mode == "--bench"    ? dsm::obs::ValidateBenchReportJson(text)
      : mode == "--claims" ? dsm::obs::CheckBenchClaims(text)
                           : dsm::obs::ValidateRunReportJson(text);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

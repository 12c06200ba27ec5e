/// \file gapstat.cpp
/// Telemetry and QoR CLI: show / diff / aggregate Prometheus exposition,
/// gap-flight-v1 flight-recorder dumps, and QoR run manifests. All logic
/// lives in gap::obs::run_gapstat (src/obs/stat_cli.cpp) so the test suite can
/// exercise it in-process; this file only binds it to the process:
/// SIGPIPE is ignored and a broken stdout exits 5 with a diagnostic
/// (common/io_guard.hpp).

#include <iostream>

#include "common/io_guard.hpp"
#include "obs/stat_cli.hpp"

int main(int argc, char** argv) {
  gap::common::ignore_sigpipe();
  const int code =
      gap::obs::run_gapstat(argc - 1, argv + 1, std::cout, std::cerr);
  return gap::common::finish_stdout(code, std::cout, std::cerr, "gapstat");
}

#pragma once
/// \file stat_cli.hpp
/// Implementation of the `gapstat` telemetry CLI: load, diff, and
/// aggregate the three run artifacts the tools emit that are not Chrome
/// traces — Prometheus exposition text (`gapflow --metrics-out`,
/// `gapd --expose-out`), `gap-flight-v1` flight-recorder dumps, and QoR
/// run manifests (`gapflow --qor-out`) — without caring which is which
/// (the loader sniffs the format). Lives in the library so the test
/// suite can drive it in-process with captured streams.
///
///   gapstat show FILE            [--format text|csv|json]
///   gapstat diff OLD NEW         [--format text|csv|json] [--strict]
///   gapstat agg FILE [FILE...]   [--format text|csv|json]
///
/// Every input collapses to a sorted name -> value map (histograms
/// contribute their _count/_clamped/_min/_max series; flight dumps
/// contribute per-kind event counts; manifests flatten to dotted paths
/// such as stage.signoff.min_period_tau and attribution.gap_score.
/// composed, docs/qor.md), so files of different formats can be diffed
/// against each other. `diff` reports every key whose value changed or
/// that exists on one side only; `--strict` turns any such difference
/// into exit 1, which is the CI gate for deterministic artifacts. `agg`
/// merges by metric kind: counters sum, gauges and maxima keep the max,
/// minima keep the min.
///
/// Exit codes (the shared tool vocabulary):
///   0  success (for diff: also "differences found" without --strict)
///   1  diff --strict found differences
///   2  malformed command line
///   4  an input file failed to parse
///   5  an input file could not be read

#include <iosfwd>

namespace gap::obs {

inline constexpr int kStatExitOk = 0;
inline constexpr int kStatExitDiff = 1;
inline constexpr int kStatExitUsage = 2;
inline constexpr int kStatExitParse = 4;
inline constexpr int kStatExitIo = 5;

/// Run gapstat over explicit streams. `argv` excludes the program name
/// (pass argc-1/argv+1 from main).
int run_gapstat(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err);

}  // namespace gap::obs

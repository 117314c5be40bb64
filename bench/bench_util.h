// Shared helpers for the benchmark binaries: must-succeed unwrapping and
// lazily built, cached workloads (google-benchmark re-enters each
// benchmark function many times; the data must be built once).
#ifndef QF_BENCH_BENCH_UTIL_H_
#define QF_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "flocks/flock.h"

namespace qf::bench {

// Unwraps a Result, aborting with the status message on failure. Benches
// have no error channel; a failed setup is a bug.
template <typename T>
T MustOk(Result<T> result) {
  QF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

inline QueryFlock MustFlock(std::string_view query, FilterCondition filter) {
  return MustOk(MakeFlock(query, std::move(filter)));
}

// Defeats dead-code elimination for scalar results. Do NOT use
// benchmark::DoNotOptimize for scalars here: its multi-alternative
// inline-asm constraint miscompiles doubles/bools on this toolchain
// (google/benchmark#1340), silently corrupting the value. A volatile
// store has no such problem; class types are fine with DoNotOptimize
// (memory operand).
template <typename T>
void ConsumeScalar(T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  volatile T sink = value;
  (void)sink;
}

// Real time of each finished run, in the run's own unit, keyed by its
// reported name (aggregates as "<name>_median" and the like).
using RunTimes = std::map<std::string, double>;

// The console reporter, recording RunTimes as runs finish.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      times[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    ConsoleReporter::ReportRuns(runs);
  }
  RunTimes times;
};

// main() for a binary that enforces its own acceptance bound: runs the
// benchmarks selected by the command line (--benchmark_out still writes
// its file), then returns 0 when `gate` holds over their times and 1
// when it does not.
inline int RunWithGate(int argc, char** argv,
                       const std::function<bool(const RunTimes&)>& gate) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return gate(reporter.times) ? 0 : 1;
}

}  // namespace qf::bench

#endif  // QF_BENCH_BENCH_UTIL_H_

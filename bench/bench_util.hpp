// Shared helpers for the benchmark binaries.
//
// Every bench binary regenerates one of the paper's quantitative tables or
// figure series (see DESIGN.md's per-experiment index) by printing the table
// before handing control to google-benchmark for the timing kernels:
//
//   $ ./bench_<experiment>            # table + microbenchmarks
//   $ ./bench_<experiment> --benchmark_filter=none   # table only
//
// Every main calls stamp_context() first, so each JSON snapshot records the
// build it came from; tools/compare_bench.py refuses to compare snapshots
// of different build types or flags.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdarg>
#include <cstdio>

namespace qkd::bench {

/// Adds this build's type, C++ flags and git commit (set by
/// bench/CMakeLists.txt at configure time) to the benchmark context, as
/// qkd_build_type, qkd_cxx_flags and qkd_git_sha.
inline void stamp_context() {
  benchmark::AddCustomContext("qkd_build_type", QKD_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("qkd_cxx_flags", QKD_BENCH_CXX_FLAGS);
  benchmark::AddCustomContext("qkd_git_sha", QKD_BENCH_GIT_SHA);
}

inline void heading(const char* experiment_id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment_id, title);
  std::printf("================================================================\n");
}

inline void row(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

}  // namespace qkd::bench

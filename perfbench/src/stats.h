// Sample statistics, seeded request schedules and due-time latency
// accounting for the benchmark. Everything here is pure (no clocks, no I/O),
// so tests/perfbench_test.cc covers it directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

// A failed or refused request: it misses every latency limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

double Median(std::vector<double> values);

// 0-based index of the nearest-rank percentile `p` (0 < p <= 100) among `n`
// sorted samples: the smallest rank whose cumulative share reaches p.
std::size_t NearestRankIndex(std::size_t n, double p);

struct TailPoint {
  double percentile = 0.0;  // the percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;   // samples ranked strictly after the reported one
};

// The nearest-rank percentile `p` when at least `min_beyond` samples rank
// beyond it; otherwise the highest percentile that still has `min_beyond`
// samples beyond it. A tail is never reported below the median: when no
// percentile above it qualifies (fewer than ~2 * min_beyond samples), the
// median is reported and its `beyond` says how thin the tail is.
TailPoint TailPercentile(std::vector<double> samples, double p,
                         std::size_t min_beyond = 10);

// One served request of the sz-serve workload.
struct Request {
  std::size_t shard = 0;
  std::int64_t variable = 0;
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
  double due_s = 0.0;  // offset from the schedule start (open loop only)
};

struct ScheduleSpec {
  std::size_t shards = 2;
  std::int64_t variables = 4;
  std::int64_t frames = 128;      // per variable
  std::int64_t window = 16;       // frames per record
  std::int64_t min_span = 4;      // frames per request, inclusive range
  std::int64_t max_span = 24;
  double zipf_exponent = 1.0;     // record popularity skew
  double rate_qps = 100.0;        // open-loop arrival rate (Poisson)
};

// `count` requests drawn from the seeded record-popularity distribution:
// every record of every (shard, variable) gets a Zipf rank from a seeded
// permutation, a request starts inside a record drawn by that rank and spans
// [min_span, max_span] frames (clipped to the variable's end). Due times are
// a Poisson arrival process at spec.rate_qps. Same seed, same requests.
std::vector<Request> MakeRequests(const ScheduleSpec& spec, std::uint64_t seed,
                                  std::size_t count);

// One request's timeline, all in seconds from the same origin.
struct Completion {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
};

struct LatencySummary {
  std::vector<double> latency_ms;   // done - due; kFailedLatency on failure
  std::vector<double> lateness_ms;  // sent - due (generator lateness)
  std::size_t failed = 0;
};

// Open-loop accounting: latency is measured from each request's DUE time, so
// a stall that delays later sends is charged to those requests too.
LatencySummary SummarizeOpenLoop(const std::vector<Completion>& completions);

// Share of [begin, end] covered by the union of `intervals` (each clipped to
// the window); overlapping intervals count once.
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double begin, double end);

// FNV-1a 64 over a byte string (model-artifact pinning).
std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t size);

std::string Hex64(std::uint64_t value);

}  // namespace perfbench

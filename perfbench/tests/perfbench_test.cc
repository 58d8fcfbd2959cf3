// Unit tests of the benchmark's own statistics: tail-percentile selection,
// due-time latency accounting and seeded schedule generation. Plain asserts
// so the benchmark needs no test framework; perfbench/run.py runs this binary
// before every workload and refuses to measure when it fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // 2000 samples: p99 is rank 1980 (value 1980) with 20 beyond it.
  auto t = TailPercentile(Ramp(2000), 99.0);
  EXPECT(Near(t.percentile, 99.0) && Near(t.value, 1980.0) && t.beyond == 20);
  // 1010 samples: p99 = rank 1000 has exactly 10 beyond; still reported.
  t = TailPercentile(Ramp(1010), 99.0);
  EXPECT(Near(t.percentile, 99.0) && Near(t.value, 1000.0) && t.beyond == 10);
  // 500 samples: p99 has only 5 beyond, so the highest percentile with 10
  // beyond is reported instead: rank 490 = p98.
  t = TailPercentile(Ramp(500), 99.0);
  EXPECT(Near(t.value, 490.0) && t.beyond == 10 && Near(t.percentile, 98.0));
  // 30 samples: rank 20 (p66.7) is the highest with 10 beyond.
  t = TailPercentile(Ramp(30), 99.0);
  EXPECT(Near(t.value, 20.0) && t.beyond == 10);
  // 17 samples: the only ranks with 10 beyond lie below the median, so the
  // median is reported instead of a "tail" under it.
  t = TailPercentile(Ramp(17), 99.0);
  EXPECT(Near(t.value, 9.0) && Near(t.percentile, 50.0) && t.beyond == 8);
  // Too few samples for any qualifying percentile: the median is reported.
  t = TailPercentile(Ramp(7), 99.0);
  EXPECT(Near(t.value, 4.0) && Near(t.percentile, 50.0) && t.beyond == 3);
  // Failed requests (infinite latency) rank last and push the tail up.
  std::vector<double> with_failures = Ramp(1000);
  for (int i = 0; i < 15; ++i) with_failures.push_back(perfbench::kFailedLatency);
  t = TailPercentile(with_failures, 99.0);
  EXPECT(std::isinf(t.value));
  EXPECT(Near(perfbench::Median({3.0, 1.0, 2.0, 10.0}), 2.5));
}

void TestDueTimeAccounting() {
  using perfbench::Completion;
  // Request 0 is on time; request 1 was due at 1.0 but its sender was busy
  // until 1.005 (5 ms late) and the call took 2 ms: 7 ms of latency, 5 ms of
  // lateness. Request 2 failed.
  const std::vector<Completion> c = {{0.0, 0.0, 0.003, true},
                                     {1.0, 1.005, 1.007, true},
                                     {2.0, 2.0, 2.001, false}};
  const perfbench::LatencySummary s = perfbench::SummarizeOpenLoop(c);
  EXPECT(Near(s.latency_ms[0], 3.0));
  EXPECT(std::abs(s.latency_ms[1] - 7.0) < 1e-6);
  EXPECT(std::abs(s.lateness_ms[1] - 5.0) < 1e-6);
  EXPECT(std::isinf(s.latency_ms[2]) && s.failed == 1);
  // Interval coverage counts overlaps once and clips to the window.
  EXPECT(Near(perfbench::CoveredSeconds({{0.0, 2.0}, {1.0, 3.0}, {5.0, 9.0}},
                                        0.5, 6.0),
              3.5));
}

void TestSchedule() {
  perfbench::ScheduleSpec spec;
  spec.rate_qps = 200.0;
  const auto a = perfbench::MakeRequests(spec, 42, 4000);
  const auto b = perfbench::MakeRequests(spec, 42, 4000);
  const auto c = perfbench::MakeRequests(spec, 43, 4000);
  bool same = a.size() == b.size(), differs = false, in_range = true,
       increasing = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].shard == b[i].shard && a[i].variable == b[i].variable &&
           a[i].t_begin == b[i].t_begin && a[i].t_end == b[i].t_end &&
           a[i].due_s == b[i].due_s;
    differs = differs || a[i].t_begin != c[i].t_begin ||
              a[i].shard != c[i].shard || a[i].variable != c[i].variable;
    in_range = in_range && a[i].shard < spec.shards && a[i].variable >= 0 &&
               a[i].variable < spec.variables && a[i].t_begin >= 0 &&
               a[i].t_end > a[i].t_begin && a[i].t_end <= spec.frames &&
               a[i].t_end - a[i].t_begin <= spec.max_span;
    increasing = increasing && (i == 0 || a[i].due_s > a[i - 1].due_s);
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(in_range);
  EXPECT(increasing);
  // Poisson arrivals at 200/s: 4000 requests take ~20 s.
  EXPECT(std::abs(a.back().due_s - 20.0) < 1.5);
  // Zipf skew: the hottest record draws far more than a uniform share.
  std::vector<int> hits(spec.shards * spec.variables * 8, 0);
  for (const auto& r : a) {
    ++hits[(r.shard * spec.variables + r.variable) * 8 + r.t_begin / 16];
  }
  int hottest = 0;
  for (const int h : hits) hottest = std::max(hottest, h);
  EXPECT(hottest > 4 * 4000 / static_cast<int>(hits.size()));
}

}  // namespace

int main() {
  TestTailPercentile();
  TestDueTimeAccounting();
  TestSchedule();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}

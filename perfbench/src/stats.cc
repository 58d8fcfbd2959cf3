#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

double Median(std::vector<double> values) {
  GLSC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t NearestRankIndex(std::size_t n, double p) {
  GLSC_CHECK(n > 0 && p > 0.0 && p <= 100.0);
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(
             std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

TailPoint TailPercentile(std::vector<double> samples, double p,
                         std::size_t min_beyond) {
  GLSC_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  TailPoint out;
  out.samples = n;
  std::size_t index = NearestRankIndex(n, p);
  out.percentile = p;
  if (n - 1 - index < min_beyond) {
    const std::size_t median = NearestRankIndex(n, 50.0);
    if (n > min_beyond && n - 1 - min_beyond > median) {
      index = n - 1 - min_beyond;
      out.percentile = 100.0 * static_cast<double>(index + 1) /
                       static_cast<double>(n);
    } else {
      index = median;
      out.percentile = 50.0;
    }
  }
  out.value = samples[index];
  out.beyond = n - 1 - index;
  return out;
}

std::vector<Request> MakeRequests(const ScheduleSpec& spec, std::uint64_t seed,
                                  std::size_t count) {
  GLSC_CHECK(spec.shards > 0 && spec.variables > 0 && spec.frames > 0);
  GLSC_CHECK(spec.window > 0 && spec.min_span >= 1 &&
             spec.max_span >= spec.min_span && spec.rate_qps > 0.0);
  const std::int64_t per_variable =
      (spec.frames + spec.window - 1) / spec.window;
  const std::size_t records = spec.shards *
                              static_cast<std::size_t>(spec.variables) *
                              static_cast<std::size_t>(per_variable);
  glsc::Rng rng(seed ^ 0x5EEDF00DCAFEull);

  // Seeded popularity order: rank r (0 = hottest) -> flat record id.
  std::vector<std::size_t> by_rank(records);
  std::iota(by_rank.begin(), by_rank.end(), std::size_t{0});
  for (std::size_t i = records; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.UniformInt(i)]);
  }
  std::vector<double> cdf(records);
  double total = 0.0;
  for (std::size_t r = 0; r < records; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_exponent);
    cdf[r] = total;
  }

  std::vector<Request> out;
  out.reserve(count);
  double due = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.Uniform() * total;
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()),
        records - 1);
    const std::size_t id = by_rank[rank];
    const std::size_t per_shard =
        static_cast<std::size_t>(spec.variables * per_variable);
    Request req;
    req.shard = id / per_shard;
    req.variable = static_cast<std::int64_t>(id % per_shard) / per_variable;
    const std::int64_t record = static_cast<std::int64_t>(id % per_shard) %
                                per_variable;
    const std::int64_t record_t0 = record * spec.window;
    const std::int64_t record_len =
        std::min(spec.window, spec.frames - record_t0);
    req.t_begin = record_t0 + static_cast<std::int64_t>(rng.UniformInt(
                                  static_cast<std::uint64_t>(record_len)));
    const std::int64_t span =
        spec.min_span + static_cast<std::int64_t>(rng.UniformInt(
                            static_cast<std::uint64_t>(spec.max_span -
                                                       spec.min_span + 1)));
    req.t_end = std::min(req.t_begin + span, spec.frames);
    due += -std::log(1.0 - rng.Uniform()) / spec.rate_qps;
    req.due_s = due;
    out.push_back(req);
  }
  return out;
}

LatencySummary SummarizeOpenLoop(const std::vector<Completion>& completions) {
  LatencySummary out;
  out.latency_ms.reserve(completions.size());
  out.lateness_ms.reserve(completions.size());
  for (const Completion& c : completions) {
    out.lateness_ms.push_back((c.sent_s - c.due_s) * 1e3);
    if (c.ok) {
      out.latency_ms.push_back((c.done_s - c.due_s) * 1e3);
    } else {
      out.latency_ms.push_back(kFailedLatency);
      ++out.failed;
    }
  }
  return out;
}

double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double begin, double end) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, begin);
    iv.second = std::min(iv.second, end);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = begin;
  for (const auto& iv : intervals) {
    if (iv.second <= iv.first) continue;
    const double lo = std::max(iv.first, reach);
    if (iv.second > lo) {
      covered += iv.second - lo;
      reach = iv.second;
    }
  }
  return covered;
}

std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ull;
  }
  return h;
}

std::string Hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench

// Multithreaded stress tests for the serving stack, written to give TSan (and
// the annotated lock discipline) real interleavings to chew on:
//
//   - ShardManager under concurrent Get / SetTenantLimits / ReviveShard /
//     Stats churn from many tenant threads, with admission limits tight
//     enough that shedding and tenant-limit rejections actually happen.
//   - DecodeScheduler with a one-window cache under concurrent Get, so
//     eviction and the single-flight table churn constantly.
//   - A serving storm in two arms over two sz shards. Sustained: clients at a
//     rate the fleet absorbs, with transient decode faults armed, must see
//     every request complete through retries. Overload: more clients than
//     one slowed worker can serve must degrade gracefully — the bounded
//     queue sheds, stale requests time out, the queue never grows past its
//     capacity and accepted requests finish in bounded time.
//
// Every successful Get is compared byte-for-byte against a single-threaded
// reference decode — concurrency must never change bytes. The suites run
// under the default gate for functional coverage, under the TSan lane
// (scripts/check.sh CHECK_SANITIZE=thread) for race coverage and under the
// CHECK_DEBUG lane's runtime lock-order checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "serve/fault_injector.h"
#include "serve/shard_manager.h"

namespace glsc::serve {
namespace {

// [1, 40, 32, 32] with window 16: records at t0 = 0, 16 and a padded 8-frame
// tail at t0 = 32 (the same geometry the other serve fixtures use).
core::DatasetArchive EncodeSzArchive(const Tensor& field) {
  auto codec = api::Compressor::Create("sz");
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 0.01};
  api::EncodeSession session(codec.get(), field.dim(0), field.dim(2),
                             field.dim(3), options);
  session.Push(field);
  return session.Finish();
}

Tensor MakeField(std::uint64_t seed, std::int64_t variables = 1) {
  data::FieldSpec spec;
  spec.variables = variables;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = seed;
  return data::GenerateClimate(spec);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Query ranges covering single records, record pairs, padded-tail overlap,
// and the full stream; id doubles as the thread-local pick index.
const std::vector<std::pair<std::int64_t, std::int64_t>>& QueryRanges() {
  static const std::vector<std::pair<std::int64_t, std::int64_t>> kRanges = {
      {0, 4}, {12, 20}, {16, 32}, {30, 40}, {0, 40}, {18, 22}};
  return kRanges;
}

TEST(ConcurrencyStress, ShardManagerChurn) {
  const Tensor field = MakeField(901);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = archive.Serialize();
  const auto reader = core::ArchiveReader::FromBytes(bytes);
  auto codec = api::Compressor::Create("sz");

  // Single-threaded reference decode for every query range.
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> expected;
  {
    const auto ref_reader = core::ArchiveReader::FromBytes(bytes);
    auto ref_codec = api::Compressor::Create("sz");
    DecodeScheduler reference(&ref_reader, ref_codec.get());
    for (const auto& range : QueryRanges()) {
      expected.emplace(range, reference.Get(0, range.first, range.second));
    }
  }

  ShardSpec spec;
  spec.reader = &reader;
  spec.codec = codec.get();
  spec.schedule.workers = 2;
  spec.schedule.cache_windows = 2;  // small enough to evict under churn
  ManagerOptions options;
  options.queue_capacity = 8;  // small enough to shed under churn
  options.worker_threads = 2;
  options.default_limits.max_in_flight = 4;
  ShardManager manager({spec}, options);

  constexpr int kTenantThreads = 4;
  constexpr int kIterations = 40;
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<bool> done{0};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kTenantThreads + 3);
  for (int tid = 0; tid < kTenantThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const auto& ranges = QueryRanges();
      for (int i = 0; i < kIterations; ++i) {
        GetRequest request;
        request.variable = 0;
        const auto& range = ranges[(tid + i) % ranges.size()];
        request.t_begin = range.first;
        request.t_end = range.second;
        request.tenant = "tenant" + std::to_string(tid % 2);
        try {
          const Tensor got = manager.Get(request);
          if (!SameBytes(got, expected.at(range))) mismatches.fetch_add(1);
          ok.fetch_add(1);
        } catch (const StatusError&) {
          // Shed / tenant-limited under churn — expected some of the time.
          rejected.fetch_add(1);
        }
      }
    });
  }
  // Admission-table churn: rewrite both tenants' limits continuously,
  // flipping between tight and unlimited.
  threads.emplace_back([&] {
    for (int i = 0; !done.load(); i = (i + 1) % 5) {
      TenantLimits limits;
      limits.max_in_flight = (i % 2 == 0) ? 2 : -1;
      limits.decoded_byte_budget = (i == 3) ? (64ll << 20) : -1;
      manager.SetTenantLimits("tenant0", limits);
      manager.SetTenantLimits("tenant1", limits);
      std::this_thread::yield();
    }
  });
  // Quarantine-state churn: revive (a no-op while healthy) and poll.
  threads.emplace_back([&] {
    while (!done.load()) {
      manager.ReviveShard(0);
      (void)manager.quarantined(0);
      std::this_thread::yield();
    }
  });
  // Stats reader: aggregates tenant tables and scheduler counters.
  threads.emplace_back([&] {
    while (!done.load()) {
      const ServeStats stats = manager.Stats();
      EXPECT_GE(stats.admitted, stats.completed + stats.failed);
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kTenantThreads; ++t) threads[t].join();
  done.store(true);
  for (std::size_t t = kTenantThreads; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_EQ(mismatches.load(), 0);
  // With limits flipping to "tight" mid-run some requests may reject, but the
  // service must keep making progress throughout.
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kTenantThreads * kIterations);

  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_FALSE(stats.shard_quarantined.at(0));
}

TEST(ConcurrencyStress, SchedulerTinyCacheChurn) {
  const Tensor field = MakeField(902);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = archive.Serialize();

  // Reference decode, single-threaded.
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> expected;
  {
    const auto ref_reader = core::ArchiveReader::FromBytes(bytes);
    auto ref_codec = api::Compressor::Create("sz");
    DecodeScheduler reference(&ref_reader, ref_codec.get());
    for (const auto& range : QueryRanges()) {
      expected.emplace(range, reference.Get(0, range.first, range.second));
    }
  }

  const auto reader = core::ArchiveReader::FromBytes(bytes);
  auto codec = api::Compressor::Create("sz");
  ScheduleOptions options;
  options.workers = 2;
  options.cache_windows = 1;  // every multi-record query evicts
  options.max_batch = 2;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  constexpr int kThreads = 4;
  constexpr int kIterations = 30;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const auto& ranges = QueryRanges();
      for (int i = 0; i < kIterations; ++i) {
        const auto& range = ranges[(tid * 3 + i) % ranges.size()];
        const Tensor got = scheduler.Get(0, range.first, range.second);
        if (!SameBytes(got, expected.at(range))) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The one-window cache forces constant re-decodes: strictly more record
  // decodes than the 3 records the archive holds proves eviction churned.
  EXPECT_GT(scheduler.decoded_records(), 3);
}

// Two sz shards of [2, 40, 32, 32] (3 records per variable, 6 per shard) and
// each shard's single-threaded full decode, the reference every served range
// is cut from.
struct StormFleet {
  std::vector<core::ArchiveReader> readers;
  std::vector<std::unique_ptr<api::Compressor>> codecs;
  std::vector<Tensor> reference;  // per shard, [V, T, H, W]

  StormFleet() {
    for (std::uint64_t s = 0; s < 2; ++s) {
      const Tensor field = MakeField(3000 + s, /*variables=*/2);
      readers.push_back(core::ArchiveReader::FromBytes(
          EncodeSzArchive(field).Serialize()));
      codecs.push_back(api::Compressor::Create("sz"));
      DecodeScheduler serial(&readers.back(), codecs.back().get());
      reference.push_back(serial.GetAll());
    }
  }

  // `faults` is armed on shard 0 only, or on every shard.
  std::vector<ShardSpec> Specs(std::int64_t cache_windows,
                               FaultInjector* faults, bool every_shard) {
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s < readers.size(); ++s) {
      ShardSpec spec{&readers[s], codecs[s].get(), {}};
      spec.schedule.cache_windows = cache_windows;
      if (s == 0 || every_shard) spec.schedule.fault_injector = faults;
      specs.push_back(spec);
    }
    return specs;
  }

  bool Matches(const GetRequest& request, const Tensor& got) const {
    const Tensor& full = reference[request.shard];
    const std::int64_t hw = full.dim(2) * full.dim(3);
    const std::int64_t frames = request.t_end - request.t_begin;
    const float* want =
        full.data() + (request.variable * full.dim(1) + request.t_begin) * hw;
    return got.numel() == frames * hw &&
           std::memcmp(got.data(), want,
                       static_cast<std::size_t>(frames * hw) *
                           sizeof(float)) == 0;
  }
};

TEST(ConcurrencyStress, SustainedLoadCompletesEveryRequestThroughRetries) {
  StormFleet fleet;
  const std::int64_t frames = fleet.readers[0].dataset_shape()[1];
  FaultInjector faults;  // on shard 0
  faults.Arm(FaultInjector::Kind::kTransient, /*count=*/8);
  ManagerOptions options;
  options.queue_capacity = 128;
  options.worker_threads = 2;
  // More retries than armed charges: even a request that draws every
  // injected fault on consecutive attempts still completes.
  options.max_retries = 10;
  ShardManager manager(
      fleet.Specs(/*cache_windows=*/8, &faults, /*every_shard=*/false),
      options);

  constexpr int kClients = 4;
  constexpr int kRequests = 64;
  std::atomic<int> failed{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        GetRequest request;
        request.shard = static_cast<std::size_t>((c + r) % 2);
        request.variable = r % 2;
        request.t_begin = (r * 7) % (frames - 8);
        request.t_end = std::min<std::int64_t>(frames, request.t_begin + 16);
        request.tenant = "client-" + std::to_string(c);
        try {
          if (!fleet.Matches(request, manager.Get(request))) {
            mismatches.fetch_add(1);
          }
        } catch (const StatusError&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Shard 0's cache starts cold, so at least its first decode draws a
  // charge. Every charge fails one record decode, and the request attempt
  // that owned it retried: an attempt spans at most two records, so one
  // retry absorbs at most two charges.
  const std::int64_t injected = faults.injected_transient();
  const ServeStats stats = manager.Stats();
  EXPECT_GT(injected, 0);
  EXPECT_EQ(stats.decode_failures, injected);
  EXPECT_GE(2 * stats.retries, injected);
}

TEST(ConcurrencyStress, OverloadShedsAndTimesOutWithinBoundedQueue) {
  StormFleet fleet;
  const std::int64_t frames = fleet.readers[0].dataset_shape()[1];
  constexpr int kSlowMs = 5;
  constexpr std::int64_t kDeadlineMs = 40;
  FaultInjector faults;  // every decode slowed on every shard
  faults.Arm(FaultInjector::Kind::kSlow, /*count=*/1 << 28, /*record=*/-1,
             kSlowMs);
  ManagerOptions options;
  // Smaller than the storm: synchronous clients hold one request each, so
  // the queue only fills when capacity < clients.
  options.queue_capacity = 4;
  options.worker_threads = 1;
  // Cache off: every request pays real decodes.
  ShardManager manager(
      fleet.Specs(/*cache_windows=*/0, &faults, /*every_shard=*/true),
      options);

  constexpr int kClients = 6;
  constexpr int kRequests = 40;
  std::atomic<int> shed{0};
  std::atomic<int> timeouts{0};
  std::atomic<int> other{0};
  std::atomic<int> mismatches{0};
  std::vector<std::vector<double>> latencies_ms(kClients);
  std::atomic<bool> done{false};
  std::size_t max_queue_depth = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      max_queue_depth = std::max(max_queue_depth, manager.Stats().queue_depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        GetRequest request;
        request.shard = static_cast<std::size_t>((c + r) % 2);
        request.variable = r % 2;
        request.t_begin = (r * 11) % (frames - 16);
        request.t_end = request.t_begin + 16;
        request.tenant = "storm-" + std::to_string(c);
        request.deadline = Deadline::AfterMillis(kDeadlineMs);
        const auto t0 = std::chrono::steady_clock::now();
        try {
          const Tensor got = manager.Get(request);
          latencies_ms[c].push_back(std::chrono::duration<double, std::milli>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
          if (!fleet.Matches(request, got)) mismatches.fetch_add(1);
        } catch (const StatusError& e) {
          if (e.code() == ErrorCode::kQueueFull) {
            shed.fetch_add(1);
          } else if (e.code() == ErrorCode::kDeadlineExceeded) {
            timeouts.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  done.store(true);
  sampler.join();

  std::vector<double> accepted;
  for (const auto& mine : latencies_ms) {
    accepted.insert(accepted.end(), mine.begin(), mine.end());
  }
  std::sort(accepted.begin(), accepted.end());
  ASSERT_FALSE(accepted.empty());
  const double p99 = accepted[(accepted.size() * 99 + 99) / 100 - 1];

  EXPECT_GT(shed.load(), 0) << "an overload arm that never sheds";
  EXPECT_EQ(other.load(), 0) << "failures must be kQueueFull or deadline";
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(max_queue_depth, options.queue_capacity);
  // An accepted request waits at most its deadline in the queue and then
  // decodes behind slowed records; far beyond that means a request was
  // neither served, shed nor timed out in bounded time.
  EXPECT_LE(p99, double(kDeadlineMs) + 64.0 * kSlowMs);
  EXPECT_EQ(int(accepted.size()) + shed.load() + timeouts.load(),
            kClients * kRequests);
}

}  // namespace
}  // namespace glsc::serve

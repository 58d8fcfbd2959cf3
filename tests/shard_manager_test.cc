// Tests for the multi-tenant serving front end (serve::ShardManager) and the
// robustness contract underneath it: fault-free byte-identity to the shard
// scheduler, deadline/cancellation semantics, transient-fault retry,
// circuit-breaking quarantine with fail-fast and revival, bounded-queue load
// shedding, per-tenant admission limits, hostile-archive rejection through
// the serving path, and single-record failure isolation in DecodeScheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.h"
#include "archive_surgery.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "serve/fault_injector.h"
#include "serve/request_queue.h"
#include "serve/shard_manager.h"
#include "util/bytes.h"

namespace glsc::serve {
namespace {

// [V, 40, 32, 32] with window 16: per variable, records at t0 = 0, 16 and a
// padded 8-frame tail at t0 = 32 (same geometry the serve_test fixtures use).
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

// Blocks every decode until Release(), so tests can deterministically hold a
// worker busy while they probe queue/admission behavior. Wraps sz like
// serve_test's CountingCodec; overriding the plain DecompressWindow is enough
// because the workspace/batched variants fall back to it.
class GateCodec final : public api::Compressor {
 public:
  struct Gate {
    std::atomic<int> entered{0};
    std::atomic<bool> open{false};
  };

  GateCodec(std::unique_ptr<api::Compressor> inner, std::shared_ptr<Gate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  std::string name() const override { return inner_->name(); }
  api::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::int64_t window() const override { return inner_->window(); }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const api::ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override {
    return inner_->CompressWindow(window, bound, norms);
  }
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override {
    gate_->entered.fetch_add(1);
    while (!gate_->open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_->DecompressWindow(payload);
  }
  std::unique_ptr<api::Compressor> Clone() override {
    return std::make_unique<GateCodec>(inner_->Clone(), gate_);
  }

 private:
  std::unique_ptr<api::Compressor> inner_;
  std::shared_ptr<Gate> gate_;
};

ErrorCode CodeOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

TEST(RequestQueue, BoundedRejectNewestAndDrainOnClose) {
  RequestQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: reject-newest, no blocking
  EXPECT_EQ(queue.size(), 2u);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed
  // Consumers drain the backlog in order, then observe closure.
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(ShardManager, FaultFreeByteIdenticalToScheduler) {
  // Two shards over different archives, several tenants: with no faults and
  // unconstrained budgets the front end must return exactly the bytes the
  // shard's own scheduler returns.
  const Tensor field0 = MakeField(211, /*variables=*/2);
  const Tensor field1 = MakeField(223);
  const core::DatasetArchive archive0 = EncodeSzArchive(field0);
  const core::DatasetArchive archive1 = EncodeSzArchive(field1);
  const auto reader0 = core::ArchiveReader::FromBytes(archive0.Serialize());
  const auto reader1 = core::ArchiveReader::FromBytes(archive1.Serialize());
  auto codec0 = api::Compressor::Create("sz");
  auto codec1 = api::Compressor::Create("sz");
  auto ref_codec = api::Compressor::Create("sz");

  DecodeScheduler reference0(&reader0, ref_codec.get());
  auto ref_codec1 = api::Compressor::Create("sz");
  DecodeScheduler reference1(&reader1, ref_codec1.get());

  ShardManager manager({{&reader0, codec0.get(), {}},
                        {&reader1, codec1.get(), {}}});
  ASSERT_EQ(manager.num_shards(), 2u);

  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      GetRequest request;
      request.shard = i % 2;
      request.variable = request.shard == 0 ? (round % 2) : 0;
      request.t_begin = 5 * round;
      request.t_end = 20 + 5 * round;
      request.tenant = tenants[i];
      const Tensor got = manager.Get(request);
      DecodeScheduler& reference =
          request.shard == 0 ? reference0 : reference1;
      const Tensor want =
          reference.Get(request.variable, request.t_begin, request.t_end);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(got.numel()) *
                                sizeof(float)),
                0)
          << "round " << round << " tenant " << tenants[i];
    }
  }

  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.admitted, 9);
  EXPECT_EQ(stats.completed, 9);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.shed_queue_full, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.shard_quarantined,
            (std::vector<bool>{false, false}));
}

TEST(ShardManager, RetriesRecoverTransientFaults) {
  const Tensor field = MakeField(227);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");
  auto ref_codec = api::Compressor::Create("sz");
  DecodeScheduler reference(&reader, ref_codec.get());

  // Pin both charges to ONE record so recovery takes two full retry rounds:
  // a record-agnostic fault would burn both charges on different records of
  // the same batched attempt.
  const auto target = reader.RecordsFor(0, 0, 8);
  ASSERT_EQ(target.size(), 1u);
  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kTransient, /*count=*/2,
               static_cast<std::int64_t>(target[0]));

  ShardSpec spec{&reader, codec.get(), {}};
  spec.schedule.fault_injector = &injector;
  spec.schedule.cache_windows = 0;  // every request decodes: no hit shields
                                    // a later request from its armed fault
  ManagerOptions options;
  options.max_retries = 3;
  options.retry_backoff_ms = 1;
  ShardManager manager({spec}, options);

  GetRequest request;
  request.t_end = 40;
  const Tensor got = manager.Get(request);  // survives both injected faults
  const Tensor want = reference.Get(0, 0, 40);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);

  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(injector.injected_transient(), 2);
  EXPECT_EQ(stats.decode_failures, 2);  // each injected fault failed a record
  EXPECT_FALSE(manager.quarantined(0));  // success reset the failure streak

  // Retries are bounded: more consecutive faults than max_retries fails the
  // request with the transient code instead of retrying forever.
  injector.Arm(FaultInjector::Kind::kTransient, /*count=*/99);
  GetRequest miss;
  miss.t_begin = 16;
  miss.t_end = 24;
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(miss); }),
            ErrorCode::kUnavailable);
  EXPECT_EQ(manager.Stats().retries, 2 + options.max_retries);
}

TEST(ShardManager, DeadlinesAndCancellationFireTyped) {
  const Tensor field = MakeField(229);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");

  FaultInjector injector;
  ShardSpec spec{&reader, codec.get(), {}};
  spec.schedule.fault_injector = &injector;
  spec.schedule.max_batch = 1;  // per-record chunks: deadline checked between
  ShardManager manager({spec});

  {  // Already-expired deadline: fails before touching the decoder.
    const std::int64_t calls_before = injector.decode_calls();
    GetRequest request;
    request.t_end = 40;
    request.deadline = Deadline::AfterMillis(-1);
    EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
              ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(injector.decode_calls(), calls_before);
  }

  {  // Pre-cancelled token: reported as kCancelled (cancel wins).
    CancelToken cancel;
    cancel.Cancel();
    GetRequest request;
    request.t_end = 8;
    request.deadline = Deadline::AfterMillis(-1);
    request.cancel = &cancel;
    EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
              ErrorCode::kCancelled);
  }

  {  // Deadline expiring mid-request: the slow first record burns the budget,
    // the cooperative check between chunks stops the rest.
    injector.Arm(FaultInjector::Kind::kSlow, /*count=*/1, /*record=*/-1,
                 /*slow_ms=*/150);
    GetRequest request;
    request.t_end = 40;  // 3 records -> 3 chunks at max_batch = 1
    request.deadline = Deadline::AfterMillis(40);
    EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
              ErrorCode::kDeadlineExceeded);
  }

  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 2);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.failed, 3);
  // Deadline/cancel failures are the caller's fault, not the shard's: the
  // circuit breaker must not move.
  EXPECT_FALSE(manager.quarantined(0));

  // The same shard still serves a patient request afterwards.
  GetRequest request;
  request.t_end = 40;
  EXPECT_EQ(manager.Get(request).shape(), (Shape{40, 32, 32}));
}

TEST(ShardManager, RepeatedFailuresQuarantineOnlyThatShard) {
  const Tensor field0 = MakeField(233);
  const Tensor field1 = MakeField(239);
  const core::DatasetArchive archive0 = EncodeSzArchive(field0);
  const core::DatasetArchive archive1 = EncodeSzArchive(field1);
  const auto reader0 = core::ArchiveReader::FromBytes(archive0.Serialize());
  const auto reader1 = core::ArchiveReader::FromBytes(archive1.Serialize());
  auto codec0 = api::Compressor::Create("sz");
  auto codec1 = api::Compressor::Create("sz");

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kCorrupt, /*count=*/999);
  ShardSpec sick{&reader0, codec0.get(), {}};
  sick.schedule.fault_injector = &injector;
  ManagerOptions options;
  options.quarantine_threshold = 3;
  ShardManager manager({sick, {&reader1, codec1.get(), {}}}, options);

  GetRequest request;
  request.t_end = 8;
  // Corrupt payloads are NOT transient: each request fails kDataLoss with no
  // retry, and the third consecutive failure trips the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
              ErrorCode::kDataLoss)
        << "request " << i;
    EXPECT_EQ(manager.quarantined(0), i == 2) << "request " << i;
  }
  EXPECT_EQ(manager.Stats().retries, 0);

  // Quarantined: fail fast with kQuarantined, decoder never consulted.
  const std::int64_t calls_before = injector.decode_calls();
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
            ErrorCode::kQuarantined);
  EXPECT_EQ(injector.decode_calls(), calls_before);
  EXPECT_EQ(manager.Stats().rejected_quarantine, 1);

  // The healthy shard is untouched by its neighbor's quarantine.
  GetRequest healthy = request;
  healthy.shard = 1;
  EXPECT_EQ(manager.Get(healthy).shape(), (Shape{8, 32, 32}));
  EXPECT_FALSE(manager.quarantined(1));

  // Repair (disarm the faults) + revive: the shard serves again.
  injector.Disarm();
  manager.ReviveShard(0);
  EXPECT_FALSE(manager.quarantined(0));
  EXPECT_EQ(manager.Get(request).shape(), (Shape{8, 32, 32}));
  EXPECT_EQ(manager.Stats().shard_quarantined,
            (std::vector<bool>{false, false}));
}

TEST(ShardManager, FullQueueShedsImmediatelyWithTypedError) {
  const Tensor field = MakeField(241);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto gate = std::make_shared<GateCodec::Gate>();
  GateCodec codec(api::Compressor::Create("sz"), gate);

  ManagerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 2;
  ShardManager manager({{&reader, &codec, {}}}, options);

  GetRequest request;
  request.t_end = 8;

  // One request holds the only worker inside the gated decode; two more fill
  // the bounded queue behind it.
  std::vector<std::thread> callers;
  std::atomic<int> succeeded{0};
  callers.emplace_back([&] {
    (void)manager.Get(request);
    succeeded.fetch_add(1);
  });
  while (gate->entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&] {
      (void)manager.Get(request);
      succeeded.fetch_add(1);
    });
  }
  while (manager.Stats().queue_depth < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The next request is shed NOW — typed, and fast (no blocking push).
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
            ErrorCode::kQueueFull);
  const auto shed_latency = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(shed_latency)
                .count(),
            1000);
  EXPECT_EQ(manager.Stats().shed_queue_full, 1);

  // Open the gate: everything admitted completes; nothing was lost.
  gate->open.store(true);
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(succeeded.load(), 3);
  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ShardManager, TenantLimitsAndByteBudgetsEnforced) {
  const Tensor field = MakeField(251);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto gate = std::make_shared<GateCodec::Gate>();
  GateCodec codec(api::Compressor::Create("sz"), gate);

  ManagerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 8;
  ShardManager manager({{&reader, &codec, {}}}, options);
  TenantLimits one;
  one.max_in_flight = 1;
  manager.SetTenantLimits("limited", one);

  GetRequest request;
  request.t_end = 8;
  request.tenant = "limited";

  std::thread holder([&] { (void)manager.Get(request); });
  while (gate->entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Same tenant: over its in-flight cap -> rejected at admission.
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
            ErrorCode::kTenantLimit);
  EXPECT_EQ(manager.Stats().rejected_tenant_limit, 1);
  gate->open.store(true);
  holder.join();
  // The slot freed: the tenant is admitted again.
  EXPECT_EQ(manager.Get(request).shape(), (Shape{8, 32, 32}));

  // Byte budget: exactly one 8-frame response's worth. The second identical
  // request would exceed it and is rejected before any decode.
  TenantLimits budget;
  budget.decoded_byte_budget =
      8 * 32 * 32 * static_cast<std::int64_t>(sizeof(float));
  manager.SetTenantLimits("metered", budget);
  GetRequest metered = request;
  metered.tenant = "metered";
  EXPECT_EQ(manager.Get(metered).shape(), (Shape{8, 32, 32}));
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(metered); }),
            ErrorCode::kBudgetExhausted);
  EXPECT_EQ(manager.Stats().rejected_budget, 1);
  // Raising the budget unblocks the tenant.
  budget.decoded_byte_budget *= 4;
  manager.SetTenantLimits("metered", budget);
  EXPECT_EQ(manager.Get(metered).shape(), (Shape{8, 32, 32}));
}

TEST(ShardManager, HostileArchivesFailTypedThroughServingPath) {
  const Tensor field = MakeField(257);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto bytes = archive.Serialize();

  // Truncated footer / record area: opening the archive throws a typed
  // ArchiveError (StatusError), never a crash or misparse.
  for (const std::size_t len :
       {bytes.size() - 1, bytes.size() - 13, bytes.size() / 2}) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)core::ArchiveReader::FromBytes(cut);
      FAIL() << "truncated archive (len " << len << ") parsed";
    } catch (const core::ArchiveError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDataLoss) << "len " << len;
    }
  }

  // Lying index length: record 1's stored span overruns the record area into
  // the norms block. The open must reject the index instead of serving bytes
  // past the record area.
  {
    std::vector<core::RecordRef> records =
        core::ArchiveReader::FromBytes(bytes).records();
    ASSERT_GE(records.size(), 2u);
    records[1].length += 1u << 20;
    records[1].raw_size = records[1].length;  // plausible for any filter
    try {
      (void)core::ArchiveReader::FromBytes(
          testing::WithIndex(bytes, records));
      FAIL() << "index overrunning the record area parsed";
    } catch (const core::ArchiveError& e) {
      EXPECT_EQ(e.fault(), core::ArchiveFault::kCorruptIndex);
      EXPECT_EQ(e.code(), ErrorCode::kDataLoss);
    }
  }

  // Bit-flipped payload served end to end: the corrupted record's dims varint
  // no longer matches its code stream, so decode throws; the front end
  // surfaces a typed error, the shard eventually quarantines, and a healthy
  // shard keeps serving. No crash, no hang, no OOM.
  auto flipped = bytes;
  const auto index_reader = core::ArchiveReader::FromBytes(bytes);
  const auto hit = index_reader.RecordsFor(0, 0, 8);
  ASSERT_EQ(hit.size(), 1u);
  flipped[index_reader.records()[hit[0]].offset] ^= 0x01;
  const auto bad_reader = core::ArchiveReader::FromBytes(flipped);
  const auto good_reader = core::ArchiveReader::FromBytes(bytes);
  auto bad_codec = api::Compressor::Create("sz");
  auto good_codec = api::Compressor::Create("sz");
  ManagerOptions options;
  options.quarantine_threshold = 2;
  ShardManager manager({{&bad_reader, bad_codec.get(), {}},
                        {&good_reader, good_codec.get(), {}}},
                       options);

  GetRequest request;
  request.t_end = 8;
  for (int i = 0; i < 2; ++i) {
    const ErrorCode code = CodeOf([&] { (void)manager.Get(request); });
    EXPECT_TRUE(code == ErrorCode::kInternal || code == ErrorCode::kDataLoss)
        << "request " << i << " code " << ErrorCodeName(code);
  }
  EXPECT_TRUE(manager.quarantined(0));
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
            ErrorCode::kQuarantined);
  // Unflipped records on the same shard are NOT reachable while quarantined —
  // but the healthy shard serves the same query bit-for-bit.
  GetRequest healthy = request;
  healthy.shard = 1;
  EXPECT_EQ(manager.Get(healthy).shape(), (Shape{8, 32, 32}));

  // Zero-filled payload: decodes to an empty window; the scheduler's geometry
  // check rejects it as a typed error rather than returning torn bytes.
  auto zeroed = bytes;
  const auto& ref = index_reader.records()[hit[0]];
  std::fill(zeroed.begin() + static_cast<std::ptrdiff_t>(ref.offset),
            zeroed.begin() +
                static_cast<std::ptrdiff_t>(ref.offset + ref.length),
            std::uint8_t{0});
  const auto zero_reader = core::ArchiveReader::FromBytes(zeroed);
  auto zero_codec = api::Compressor::Create("sz");
  ShardManager zero_manager({{&zero_reader, zero_codec.get(), {}}});
  EXPECT_NE(CodeOf([&] { (void)zero_manager.Get(request); }),
            ErrorCode::kOk);
}

TEST(ShardManager, InvalidRequestsAndShutdownAreTyped) {
  const Tensor field = MakeField(263);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");
  ShardManager manager({{&reader, codec.get(), {}}});

  GetRequest bad_shard;
  bad_shard.shard = 7;
  bad_shard.t_end = 8;
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(bad_shard); }),
            ErrorCode::kInvalidArgument);
  GetRequest bad_range;
  bad_range.t_begin = 30;
  bad_range.t_end = 10;
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(bad_range); }),
            ErrorCode::kInvalidArgument);
  GetRequest bad_variable;
  bad_variable.variable = 9;
  bad_variable.t_end = 8;
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(bad_variable); }),
            ErrorCode::kInvalidArgument);
  // Admission rejections are not "admitted then failed".
  EXPECT_EQ(manager.Stats().admitted, 0);
  EXPECT_EQ(manager.Stats().failed, 0);

  manager.Shutdown();
  GetRequest request;
  request.t_end = 8;
  EXPECT_EQ(CodeOf([&] { (void)manager.Get(request); }),
            ErrorCode::kShutdown);
  manager.Shutdown();  // idempotent
}

TEST(DecodeSchedulerRobustness, FailingRecordFailsOnlyRequestsNeedingIt) {
  // Satellite: a worker-side decode failure must surface as a typed error on
  // exactly the queries that need the failing record; other records decode
  // normally, and the failure does not poison the single-flight table.
  const Tensor field = MakeField(269);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");
  auto ref_codec = api::Compressor::Create("sz");
  DecodeScheduler reference(&reader, ref_codec.get());

  const auto bad = reader.RecordsFor(0, 16, 24);  // the t0 = 16 record
  ASSERT_EQ(bad.size(), 1u);

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kCorrupt, /*count=*/999,
               static_cast<std::int64_t>(bad[0]));
  ScheduleOptions options;
  options.workers = 2;  // failure crosses the ParallelFor fan-out
  options.fault_injector = &injector;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  // Queries avoiding the bad record are untouched...
  const Tensor head = scheduler.Get(0, 0, 8);
  const Tensor tail = scheduler.Get(0, 32, 40);
  const Tensor want_head = reference.Get(0, 0, 8);
  EXPECT_EQ(std::memcmp(head.data(), want_head.data(),
                        static_cast<std::size_t>(head.numel()) *
                            sizeof(float)),
            0);
  // ...queries needing it fail with the injected typed error, repeatedly
  // (each attempt decodes fresh — a failure is never cached)...
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(CodeOf([&] { (void)scheduler.Get(0, 16, 24); }),
              ErrorCode::kDataLoss)
        << "attempt " << i;
    EXPECT_EQ(CodeOf([&] { (void)scheduler.Get(0, 0, 40); }),
              ErrorCode::kDataLoss)
        << "attempt " << i;
  }
  EXPECT_GE(scheduler.decode_failures(), 4);
  // ...and the spanning query's HEALTHY records were still decoded and
  // cached, so serving them again costs nothing new.
  const Tensor again = scheduler.Get(0, 32, 40);
  EXPECT_EQ(std::memcmp(again.data(), tail.data(),
                        static_cast<std::size_t>(again.numel()) *
                            sizeof(float)),
            0);

  // Once the fault clears, the same record serves fine: no poisoned state.
  injector.Disarm();
  const Tensor healed = scheduler.Get(0, 16, 24);
  const Tensor want = reference.Get(0, 16, 24);
  EXPECT_EQ(std::memcmp(healed.data(), want.data(),
                        static_cast<std::size_t>(healed.numel()) *
                            sizeof(float)),
            0);
}

TEST(DecodeSchedulerRobustness, ConcurrentWaitersSeeOwnersTypedError) {
  // Concurrent queries de-duplicated onto a failing decode: the owner and
  // every waiter must all terminate with the same typed error (no hang), and
  // the record must decode cleanly afterwards.
  const Tensor field = MakeField(271);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kCorrupt, /*count=*/999);
  ScheduleOptions options;
  options.fault_injector = &injector;
  DecodeScheduler scheduler(&reader, codec.get(), options);
  std::atomic<int> typed_failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      try {
        (void)scheduler.Get(0, 0, 40);
      } catch (const StatusError& e) {
        if (e.code() == ErrorCode::kDataLoss) typed_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(typed_failures.load(), 4);

  injector.Disarm();
  EXPECT_EQ(scheduler.Get(0, 0, 40).shape(), (Shape{40, 32, 32}));
}

TEST(DecodeSchedulerRobustness, WaiterOwnDecodeFailureIsCounted) {
  // A waiter whose owner stopped early decodes the record itself. When that
  // decode fails, the waiter gets the typed error and the failure counts in
  // decode_failures() like any other record failure.
  const Tensor field = MakeField(277);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto codec = api::Compressor::Create("sz");
  const auto first = reader.RecordsFor(0, 0, 8);
  const auto second = reader.RecordsFor(0, 16, 24);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kSlow, /*count=*/1,
               static_cast<std::int64_t>(first[0]), /*slow_ms=*/300);
  injector.Arm(FaultInjector::Kind::kCorrupt, /*count=*/1,
               static_cast<std::int64_t>(second[0]));
  ScheduleOptions options;
  options.workers = 1;
  options.max_batch = 1;  // one chunk per record
  options.cache_windows = 0;
  options.fault_injector = &injector;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  // Query A owns all three records. Its slow first chunk outlives A's
  // deadline, so A skips its other chunks and aborts their flights.
  ErrorCode a_code = ErrorCode::kOk;
  std::thread a([&] {
    RequestContext ctx;
    ctx.deadline = Deadline::AfterMillis(50);
    a_code = CodeOf([&] { (void)scheduler.Get(0, 0, 40, &ctx); });
  });
  // Query B starts while A sleeps in its first record, so it waits on A's
  // flight for the second record and then decodes that record itself.
  while (injector.injected_slow() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ErrorCode b_code = CodeOf([&] { (void)scheduler.Get(0, 16, 24); });
  a.join();

  EXPECT_EQ(a_code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(b_code, ErrorCode::kDataLoss);
  EXPECT_EQ(injector.injected_corrupt(), 1);
  EXPECT_EQ(scheduler.decode_failures(), 1);
}

}  // namespace
}  // namespace glsc::serve

// Tests for random-access archive reading (container footer index,
// core::ArchiveReader) and the parallel decode scheduler (serve/): index
// round-trips, byte-identity of DecompressAll, GetAll and Get against the
// serial per-record reference (serial_decode_reference.h) for any worker
// count and batch size, sz and GLSC, LRU eviction, truncated-footer
// rejection, a hostile PCA correction failing typed, and — via a counting
// codec — the guarantee that fetching one window decodes exactly one record
// and reads only that record's payload bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "api/adapters.h"
#include "api/session.h"
#include "codec/huffman.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/registry.h"
#include "data/field_generators.h"
#include "glsc_reference.h"
#include "serial_decode_reference.h"
#include "serve/decode_scheduler.h"
#include "serve/shard_manager.h"

namespace glsc::serve {
namespace {

// Counts DecompressWindow calls across a codec and all its clones, so tests
// can assert exactly how many records a query decoded. Deliberately does NOT
// override DecompressWindows: the batched dispatch falls back to the base
// per-window loop, so every decoded record is counted under either dispatch.
// An optional per-decode delay widens race windows for concurrency tests.
class CountingCodec final : public api::Compressor {
 public:
  CountingCodec(std::unique_ptr<api::Compressor> inner,
                std::shared_ptr<std::atomic<int>> calls, int delay_ms = 0)
      : inner_(std::move(inner)), calls_(std::move(calls)),
        delay_ms_(delay_ms) {}

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
    calls_->fetch_add(1);
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    return inner_->DecompressWindow(payload);
  }
  std::unique_ptr<api::Compressor> Clone() override {
    return std::make_unique<CountingCodec>(inner_->Clone(), calls_, delay_ms_);
  }

 private:
  std::unique_ptr<api::Compressor> inner_;
  std::shared_ptr<std::atomic<int>> calls_;
  int delay_ms_ = 0;
};

// [2, 40, 32, 32] with window 16: per variable, full records at t0 = 0 and 16
// plus an 8-frame padded tail at t0 = 32.
core::DatasetArchive EncodeSzArchive(const Tensor& field) {
  auto codec = api::Compressor::Create("sz");
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 0.01};
  api::EncodeSession session(codec.get(), field.dim(0), field.dim(2),
                             field.dim(3), options);
  session.Push(field);
  return session.Finish();
}

Tensor MakeField(std::uint64_t seed = 111, std::int64_t variables = 2) {
  data::FieldSpec spec;
  spec.variables = variables;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = seed;
  return data::GenerateClimate(spec);
}

// `archive` without the record at entries()[skip]: a coverage hole.
core::DatasetArchive WithoutEntry(const core::DatasetArchive& archive,
                                  std::size_t skip) {
  core::DatasetArchive out(archive.codec(), archive.dataset_shape(),
                           archive.window(), archive.norms());
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    if (i == skip) continue;
    const core::ArchiveEntry& e = archive.entries()[i];
    out.Add(e.variable, e.t0, e.valid_frames, e.payload);
  }
  return out;
}

TEST(ArchiveReader, IndexRoundTrip) {
  const Tensor field = MakeField();
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = archive.Serialize();

  const auto reader = core::ArchiveReader::FromBytes(bytes);
  EXPECT_EQ(reader.codec(), "sz");
  EXPECT_EQ(reader.dataset_shape(), archive.dataset_shape());
  EXPECT_EQ(reader.window(), archive.window());
  ASSERT_EQ(reader.records().size(), archive.entries().size());
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const auto& ref = reader.records()[i];
    const auto& entry = archive.entries()[i];
    EXPECT_EQ(ref.variable, entry.variable);
    EXPECT_EQ(ref.t0, entry.t0);
    EXPECT_EQ(ref.valid_frames, entry.valid_frames);
    EXPECT_EQ(ref.raw_size, entry.payload.size());
    EXPECT_EQ(reader.ReadPayload(i), entry.payload);
  }
  EXPECT_FLOAT_EQ(reader.norm(1, 17).mean, archive.norm(1, 17).mean);
  EXPECT_FLOAT_EQ(reader.norm(1, 17).range, archive.norm(1, 17).range);

  // Range queries: [18, 20) lies inside the t0=16 record; [8, 20) spans two.
  const auto one = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(reader.records()[one[0]].t0, 16);
  EXPECT_EQ(reader.RecordsFor(0, 8, 20).size(), 2u);
  EXPECT_EQ(reader.RecordsFor(1, 0, 40).size(), 3u);
  EXPECT_THROW(reader.RecordsFor(2, 0, 1), std::runtime_error);
  EXPECT_THROW(reader.RecordsFor(0, 10, 5), std::runtime_error);
  EXPECT_THROW(reader.RecordsFor(0, 0, 41), std::runtime_error);
}

TEST(ArchiveReader, FileBackedFetchesOnlyTouchedPayloads) {
  const Tensor field = MakeField(113);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const std::string path =
      "/tmp/glsc_serve_test_file_" + std::to_string(::getpid()) + ".glsca";
  const auto bytes = archive.Serialize();
  WriteFileBytes(path, bytes);
  const std::uint64_t file_bytes = bytes.size();

  const auto reader = core::ArchiveReader::FromFile(path);
  ASSERT_EQ(reader.records().size(), 6u);
  EXPECT_EQ(reader.archive_bytes(), file_bytes);
  // Opening reads header + footer + norms + index only — no payload bytes.
  EXPECT_EQ(reader.payload_bytes_fetched(), 0u);

  const auto hits = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(hits.size(), 1u);
  const auto payload = reader.ReadPayload(hits[0]);
  EXPECT_EQ(payload, archive.entries()[hits[0]].payload);
  // Exactly that record's stored bytes crossed the file boundary, and they
  // decoded to exactly its raw payload.
  EXPECT_EQ(reader.payload_bytes_fetched(), reader.records()[hits[0]].length);
  EXPECT_EQ(reader.decoded_payload_bytes(), payload.size());
  EXPECT_LT(reader.payload_bytes_fetched(), file_bytes);
  std::filesystem::remove(path);
}

TEST(ArchiveReader, RejectsTruncatedOrCorruptFooter) {
  const Tensor field = MakeField(131, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto bytes = archive.Serialize();

  // Truncations landing in the footer, the index block, and the record area
  // must all throw — never misparse or read out of bounds.
  for (const std::size_t len :
       {bytes.size() - 1, bytes.size() - 6, bytes.size() - 13,
        bytes.size() - 40, bytes.size() / 2}) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(core::ArchiveReader::FromBytes(cut), std::runtime_error)
        << "length " << len;
    EXPECT_THROW(core::DatasetArchive::Deserialize(cut), core::ArchiveError)
        << "length " << len;
  }

  // Corrupt index magic.
  auto bad_magic = bytes;
  bad_magic[bad_magic.size() - 1] = 'Z';
  EXPECT_THROW(core::ArchiveReader::FromBytes(bad_magic), std::runtime_error);

  // Footer pointing the index out of range.
  auto bad_offset = bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bad_offset[bad_offset.size() - 12 + i] = 0xFF;
  }
  EXPECT_THROW(core::ArchiveReader::FromBytes(bad_offset),
               std::runtime_error);
}

TEST(DecodeScheduler, FullRangeMatchesDecodeAllForAnyWorkerCount) {
  const Tensor field = MakeField(137);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");

  const Tensor reference = testing::SerialDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  for (const std::int64_t workers : {1, 2, 3}) {
    ScheduleOptions options;
    options.workers = workers;
    DecodeScheduler scheduler(&reader, codec.get(), options);
    const Tensor full = scheduler.GetAll();
    ASSERT_EQ(full.shape(), reference.shape()) << workers << " workers";
    EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                          static_cast<std::size_t>(full.numel()) *
                              sizeof(float)),
              0)
        << workers << " workers";

    // Per-variable range queries stitch to the same bytes.
    const std::int64_t frames = field.dim(1);
    const std::int64_t hw = field.dim(2) * field.dim(3);
    for (std::int64_t v = 0; v < field.dim(0); ++v) {
      const Tensor slice = scheduler.Get(v, 0, frames);
      EXPECT_EQ(std::memcmp(slice.data(),
                            reference.data() + v * frames * hw,
                            static_cast<std::size_t>(frames * hw) *
                                sizeof(float)),
                0)
          << "variable " << v << ", " << workers << " workers";
    }
  }
}

TEST(DecodeScheduler, SingleWindowDecodesExactlyOneRecord) {
  const Tensor field = MakeField(139);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const std::string path =
      "/tmp/glsc_serve_test_single_" + std::to_string(::getpid()) + ".glsca";
  archive.WriteFile(path);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);
  const auto reader = core::ArchiveReader::FromFile(path);
  DecodeScheduler scheduler(&reader, &codec);

  // [18, 20) for variable 0 lives entirely in the t0=16 record: exactly one
  // DecompressWindow call, exactly one record's payload bytes off disk.
  const Tensor slice = scheduler.Get(0, 18, 20);
  EXPECT_EQ(slice.shape(), (Shape{2, 32, 32}));
  EXPECT_EQ(calls->load(), 1);
  EXPECT_EQ(scheduler.decoded_records(), 1);
  const auto hit = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(reader.payload_bytes_fetched(), reader.records()[hit[0]].length);

  // The slice matches the full decode of those frames.
  const Tensor all = testing::SerialDecode(&codec, archive);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  EXPECT_EQ(std::memcmp(slice.data(), all.data() + (0 * 40 + 18) * hw,
                        static_cast<std::size_t>(2 * hw) * sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(DecodeScheduler, CachesOverlappingQueriesAndEvictsLru) {
  const Tensor field = MakeField(149, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);

  {  // Overlapping queries reuse the cached record.
    DecodeScheduler scheduler(&reader, &codec);
    (void)scheduler.Get(0, 16, 32);
    EXPECT_EQ(calls->load(), 1);
    (void)scheduler.Get(0, 20, 30);
    EXPECT_EQ(calls->load(), 1);  // served from cache
    EXPECT_EQ(scheduler.cache_hits(), 1);
    (void)scheduler.Get(0, 0, 40);  // needs the other two records
    EXPECT_EQ(calls->load(), 3);
    EXPECT_EQ(scheduler.cache_hits(), 2);
  }

  {  // Capacity 1: A, B, A re-decodes A; A again hits.
    calls->store(0);
    ScheduleOptions options;
    options.cache_windows = 1;
    DecodeScheduler scheduler(&reader, &codec, options);
    (void)scheduler.Get(0, 0, 8);    // record A (t0 = 0)
    (void)scheduler.Get(0, 16, 24);  // record B evicts A
    (void)scheduler.Get(0, 0, 8);    // A again: miss
    EXPECT_EQ(calls->load(), 3);
    (void)scheduler.Get(0, 0, 8);  // now cached
    EXPECT_EQ(calls->load(), 3);
  }

  {  // cache_windows = 0 disables caching entirely.
    calls->store(0);
    ScheduleOptions options;
    options.cache_windows = 0;
    DecodeScheduler scheduler(&reader, &codec, options);
    (void)scheduler.Get(0, 0, 8);
    (void)scheduler.Get(0, 0, 8);
    EXPECT_EQ(calls->load(), 2);
  }
}

TEST(DecodeScheduler, ConcurrentGetsAreSafeAndConsistent) {
  // Get is documented thread-safe: concurrent queries interleave on the
  // per-worker locks and must all come back byte-identical to the serial
  // reference decode.
  const Tensor field = MakeField(157);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.workers = 2;
  options.cache_windows = 2;  // small enough to keep evicting under load
  DecodeScheduler scheduler(&reader, codec.get(), options);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < 4; ++thread_id) {
    threads.emplace_back([&, thread_id] {
      for (int round = 0; round < 8; ++round) {
        const std::int64_t v = (thread_id + round) % field.dim(0);
        const std::int64_t t0 = ((thread_id * 7 + round * 5) % 3) * 13;
        const std::int64_t t1 = std::min<std::int64_t>(frames, t0 + 14);
        const Tensor slice = scheduler.Get(v, t0, t1);
        if (std::memcmp(slice.data(),
                        reference.data() + (v * frames + t0) * hw,
                        static_cast<std::size_t>((t1 - t0) * hw) *
                            sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DecodeScheduler, BatchedDispatchMatchesSerialForAnyWorkerCount) {
  // The coalesced DecompressWindows dispatch must be byte-identical to the
  // per-record dispatch for every (workers, max_batch) combination; the cache
  // is off so every query pays real decodes through the chosen dispatch.
  const Tensor field = MakeField(163);  // 2 variables, 6 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  for (const std::int64_t workers : {1, 4}) {
    for (const std::int64_t max_batch : {1, 2, 5, 8}) {
      ScheduleOptions options;
      options.workers = workers;
      options.cache_windows = 0;
      options.max_batch = max_batch;
      DecodeScheduler scheduler(&reader, codec.get(), options);
      const Tensor full = scheduler.GetAll();
      ASSERT_EQ(full.shape(), reference.shape());
      EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                            static_cast<std::size_t>(full.numel()) *
                                sizeof(float)),
                0)
          << workers << " workers, max_batch " << max_batch;
      for (std::int64_t v = 0; v < field.dim(0); ++v) {
        const Tensor slice = scheduler.Get(v, 0, frames);
        EXPECT_EQ(std::memcmp(slice.data(),
                              reference.data() + v * frames * hw,
                              static_cast<std::size_t>(frames * hw) *
                                  sizeof(float)),
                  0)
            << "variable " << v << ", " << workers << " workers, max_batch "
            << max_batch;
      }
    }
  }
}

TEST(DecodeScheduler, ConcurrentIdenticalQueriesDecodeEachRecordOnce) {
  // Single-flight regression: concurrent queries missing the same records
  // must not decode any record twice. The per-decode delay keeps all four
  // threads inside the decode window, so without the in-flight table each
  // thread would race past the (still empty) cache and run its own decodes.
  const Tensor field = MakeField(173, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto plain = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(plain.get(), archive);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls, /*delay_ms=*/25);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  DecodeScheduler scheduler(&reader, &codec);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      const Tensor slice = scheduler.Get(0, 0, frames);
      if (std::memcmp(slice.data(), reference.data(),
                      static_cast<std::size_t>(frames * hw) *
                          sizeof(float)) != 0) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 3 unique misses — every further serve came from a flight or the cache.
  EXPECT_EQ(calls->load(), 3);
  EXPECT_EQ(scheduler.decoded_records(), 3);
  EXPECT_EQ(scheduler.cache_hits(), 4 * 3 - 3);
}

TEST(DecodeScheduler, BatchLargerThanCacheStillReturnsCorrectBytes) {
  // cache_windows = 1 with a 3-record coalesced batch: the publish pass
  // inserts three records through a capacity-1 LRU, so they evict each other
  // inside one Insert loop. The fetch results must be unaffected — `out[]`
  // holds its own copy of every decoded tensor — and the cache must end up
  // holding exactly the last-published record.
  const Tensor field = MakeField(179, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto plain = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(plain.get(), archive);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.workers = 1;  // deterministic publish order
  options.cache_windows = 1;
  options.max_batch = 8;
  DecodeScheduler scheduler(&reader, &codec, options);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  const Tensor full = scheduler.Get(0, 0, frames);
  EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                        static_cast<std::size_t>(frames * hw) *
                            sizeof(float)),
            0);
  EXPECT_EQ(calls->load(), 3);

  // The survivor is the last record published (t0 = 32): re-fetching it hits.
  (void)scheduler.Get(0, 32, 40);
  EXPECT_EQ(calls->load(), 3);
  // Any earlier record was evicted during the batch publish: miss.
  (void)scheduler.Get(0, 0, 8);
  EXPECT_EQ(calls->load(), 4);
}

TEST(DecodeScheduler, UncoveredFramesStayExactlyZero) {
  // An archive with a coverage hole (the t0=16 record dropped): Get over a
  // range spanning the hole must return the covered frames bit-exactly and
  // leave every uncovered frame at exactly 0.0f — no denormalization may
  // touch frames no record covers.
  const Tensor field = MakeField(181, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  std::size_t hole = archive.entries().size();
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    if (archive.entries()[i].t0 == 16) hole = i;
  }
  ASSERT_LT(hole, archive.entries().size());

  auto codec = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(
      WithoutEntry(archive, hole).Serialize());
  ASSERT_EQ(reader.records().size(), archive.entries().size() - 1);
  DecodeScheduler scheduler(&reader, codec.get());

  const std::int64_t hw = field.dim(2) * field.dim(3);
  const Tensor slice = scheduler.Get(0, 8, 36);  // [8,16) + hole + [32,36)
  ASSERT_EQ(slice.shape(), (Shape{28, field.dim(2), field.dim(3)}));
  EXPECT_EQ(std::memcmp(slice.data(), reference.data() + 8 * hw,
                        static_cast<std::size_t>(8 * hw) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(slice.data() + 24 * hw, reference.data() + 32 * hw,
                        static_cast<std::size_t>(4 * hw) * sizeof(float)),
            0);
  for (std::int64_t k = 8 * hw; k < 24 * hw; ++k) {
    ASSERT_EQ(slice.data()[k], 0.0f) << "uncovered frame element " << k;
  }
}

bool SameBytes(const float* a, const float* b, std::int64_t count) {
  return std::memcmp(a, b, static_cast<std::size_t>(count) * sizeof(float)) ==
         0;
}

// Every decode entry point against the serial reference: DecompressAll, then
// GetAll and per-variable Get with the cache off (every query decodes) at
// each worker count x max_batch in {1, 2, 8}.
void ExpectEntryPointsMatchSerialReference(
    api::Compressor* codec, const core::DatasetArchive& archive,
    const std::vector<std::int64_t>& worker_counts) {
  const Tensor reference = testing::SerialDecode(codec, archive);
  const Tensor all = archive.DecompressAll(codec);
  ASSERT_EQ(all.shape(), reference.shape());
  EXPECT_TRUE(SameBytes(all.data(), reference.data(), all.numel()))
      << "DecompressAll";

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  const Shape& shape = archive.dataset_shape();
  const std::int64_t frames = shape[1];
  const std::int64_t hw = shape[2] * shape[3];
  for (const std::int64_t workers : worker_counts) {
    for (const std::int64_t max_batch : {1, 2, 8}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, max_batch " +
                   std::to_string(max_batch));
      ScheduleOptions options;
      options.workers = workers;
      options.max_batch = max_batch;
      options.cache_windows = 0;
      DecodeScheduler scheduler(&reader, codec, options);
      const Tensor full = scheduler.GetAll();
      ASSERT_EQ(full.shape(), reference.shape());
      EXPECT_TRUE(SameBytes(full.data(), reference.data(), full.numel()))
          << "GetAll";
      for (std::int64_t v = 0; v < shape[0]; ++v) {
        const Tensor slice = scheduler.Get(v, 0, frames);
        EXPECT_TRUE(SameBytes(slice.data(), reference.data() + v * frames * hw,
                              frames * hw))
            << "Get, variable " << v;
      }
    }
  }
}

TEST(DecodeScheduler, SzEntryPointsMatchSerialReference) {
  const Tensor field = MakeField(191);  // 2 variables, 6 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  ExpectEntryPointsMatchSerialReference(codec.get(), archive, {1, 2, 3});
}

TEST(DecodeScheduler, GlscEntryPointsMatchSerialReference) {
  // Untrained small model: decode is deterministic, so byte equality is
  // meaningful without training. The fitted PCA basis lets records carry
  // corrections, which each entry point must apply per window.
  core::GlscCompressor glsc(testing::SmallGlscConfig());
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 20;  // window 8: records at t0 = 0, 8 and a 4-frame tail
  spec.height = 16;
  spec.width = 16;
  spec.seed = 193;
  const Tensor field = data::GenerateClimate(spec);
  core::FitPcaFromResiduals(&glsc, data::SequenceDataset(field.Clone()),
                            /*fit_windows=*/2, /*crop=*/16);
  const auto codec = api::WrapGlsc(&glsc);
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kPointwiseL2, 0.5};
  api::EncodeSession session(codec.get(), 2, 16, 16, options);
  session.Push(field);
  const core::DatasetArchive archive = session.Finish();
  ASSERT_EQ(archive.entries().size(), 6u);
  ExpectEntryPointsMatchSerialReference(codec.get(), archive, {1, 2});
}

TEST(DecodeScheduler, PcaCorrectionIdPastTheFrameFailsAsDataLoss) {
  // A glsc record whose first correction names a coefficient past the
  // frame's blocks x D. Apply must reject it as a corrupt record instead of
  // adding into memory outside the frame, through DecompressAll and through
  // ShardManager::Get alike.
  core::GlscCompressor glsc(testing::SmallGlscConfig());
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 8;  // one window-8 record
  spec.height = 16;
  spec.width = 16;
  spec.seed = 199;
  const Tensor field = data::GenerateClimate(spec);
  core::FitPcaFromResiduals(&glsc, data::SequenceDataset(field.Clone()),
                            /*fit_windows=*/2, /*crop=*/16);
  const auto codec = api::WrapGlsc(&glsc);
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kPointwiseL2, 0.5};
  api::EncodeSession session(codec.get(), 1, 16, 16, options);
  session.Push(field);
  const core::DatasetArchive archive = session.Finish();
  ASSERT_EQ(archive.entries().size(), 1u);
  const core::ArchiveEntry& entry = archive.entries()[0];
  ByteReader in(entry.payload);
  core::CompressedWindow window = core::DeserializeWindow(&in);
  ASSERT_EQ(window.corrections.size(), 8u);

  // One coefficient at id 2^30; a 16x16 frame of 8x8 blocks has 4 x 64.
  ByteWriter correction;
  correction.PutVarU64(16);
  correction.PutVarU64(16);
  correction.PutF64(1.0);
  for (const auto& stream :
       {codec::HuffmanEncode({1 << 30}), codec::HuffmanEncode({7})}) {
    correction.PutVarU64(stream.size());
    correction.PutBytes(stream.data(), stream.size());
  }
  window.corrections[0] = correction.Release();
  ByteWriter payload;
  core::SerializeWindow(window, &payload);
  std::vector<data::FrameNorm> norms;
  for (std::int64_t t = 0; t < 8; ++t) norms.push_back(archive.norm(0, t));
  core::DatasetArchive hostile(archive.codec(), archive.dataset_shape(),
                               archive.window(), norms);
  hostile.Add(0, 0, entry.valid_frames, payload.Release());

  const auto expect_data_loss = [](const auto& fn, const char* where) {
    try {
      fn();
      ADD_FAILURE() << where << " accepted the hostile id";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDataLoss) << where << ": " << e.what();
    }
  };
  expect_data_loss([&] { (void)hostile.DecompressAll(codec.get()); },
                   "DecompressAll");
  const auto reader = core::ArchiveReader::FromBytes(hostile.Serialize());
  ShardManager manager({ShardSpec{&reader, codec.get(), {}}});
  GetRequest request;
  request.t_end = 8;
  expect_data_loss([&] { (void)manager.Get(request); }, "ShardManager::Get");
}

TEST(DecodeScheduler, FailedBatchBlamesOnlyTheBadRecord) {
  // A real codec failure inside a batched chunk: the chunk is re-decoded one
  // record at a time from the payloads already held, so only the bad record
  // fails, the healthy ones are published and cached, and no payload is
  // read twice.
  const Tensor field = MakeField(197, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  std::vector<data::FrameNorm> norms;
  for (std::int64_t t = 0; t < field.dim(1); ++t) {
    norms.push_back(archive.norm(0, t));
  }
  core::DatasetArchive broken(archive.codec(), archive.dataset_shape(),
                              archive.window(), norms);
  for (const core::ArchiveEntry& entry : archive.entries()) {
    broken.Add(entry.variable, entry.t0, entry.valid_frames,
               entry.t0 == 16 ? std::vector<std::uint8_t>{1, 2, 3}
                              : entry.payload);
  }
  const auto reader = core::ArchiveReader::FromBytes(broken.Serialize());
  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);
  ScheduleOptions options;
  options.workers = 1;
  options.max_batch = 8;  // all three records in one chunk
  DecodeScheduler scheduler(&reader, &codec, options);

  EXPECT_THROW((void)scheduler.Get(0, 0, 40), std::exception);
  EXPECT_EQ(scheduler.decode_failures(), 1);
  EXPECT_EQ(scheduler.decoded_records(), 2);
  std::uint64_t stored = 0;
  for (const core::RecordRef& ref : reader.records()) stored += ref.length;
  EXPECT_EQ(reader.payload_bytes_fetched(), stored);

  // The healthy records were cached: serving them again decodes nothing.
  const int calls_before = calls->load();
  const Tensor head = scheduler.Get(0, 0, 16);
  const Tensor tail = scheduler.Get(0, 32, 40);
  EXPECT_EQ(calls->load(), calls_before);
  auto plain = api::Compressor::Create("sz");
  const Tensor reference = testing::SerialDecode(plain.get(), archive);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  EXPECT_TRUE(SameBytes(head.data(), reference.data(), 16 * hw));
  EXPECT_TRUE(SameBytes(tail.data(), reference.data() + 32 * hw, 8 * hw));
}

TEST(DecodeScheduler, RejectsCodecMismatch) {
  const Tensor field = MakeField(151, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto zfp = api::Compressor::Create("zfp");
  try {
    DecodeScheduler scheduler(&reader, zfp.get());
    ADD_FAILURE() << "codec mismatch accepted";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

}  // namespace
}  // namespace glsc::serve

// Tests for the v4 container: filtered serialization round-trips at every
// dispatch level (byte-identical archives native vs forced scalar, smaller
// than raw on synthetic and on real sz payloads), AppendToFile equivalence
// with one-shot serialization, hostile filtered archives failing typed,
// mmap/pread file backings, and the stored vs decoded byte accounting.
// Retired v1-v3 bytes are refused at open (container_test:
// RetiredV1V2V3LayoutsAreRefusedAtOpen).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace glsc::core {
namespace {

std::vector<simd::IsaLevel> TestableLevels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::kScalar};
  const simd::IsaLevel max = simd::DetectedIsa();
  if (max >= simd::IsaLevel::kSSE2) levels.push_back(simd::IsaLevel::kSSE2);
  if (max >= simd::IsaLevel::kAVX2) levels.push_back(simd::IsaLevel::kAVX2);
  if (max >= simd::IsaLevel::kAVX512) {
    levels.push_back(simd::IsaLevel::kAVX512);
  }
  return levels;
}

// Codec-opaque payload with enough structure for the filter selection to
// choose a compressed representation (a noisy ramp, byte-periodic like
// quantized residual streams).
std::vector<std::uint8_t> StructuredPayload(Rng* rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i / 7) + (rng->UniformInt(3)));
  }
  return v;
}

std::vector<std::uint8_t> NoisePayload(Rng* rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng->UniformInt(256));
  return v;
}

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes)) << path;
  return bytes;
}

std::vector<data::FrameNorm> MakeNorms(std::int64_t vars, std::int64_t t) {
  std::vector<data::FrameNorm> norms(static_cast<std::size_t>(vars * t));
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i].mean = 0.01f * static_cast<float>(i);
    norms[i].range = 1.0f + 0.001f * static_cast<float>(i % 64);
  }
  return norms;
}

// A small two-variable archive with both compressible and incompressible
// records (the selection must handle a mix within one archive).
DatasetArchive MakeArchive(std::uint64_t seed, std::int64_t t = 16) {
  Rng rng(seed);
  DatasetArchive archive("sz", {2, t, 8, 8}, 8, MakeNorms(2, t));
  for (std::int64_t v = 0; v < 2; ++v) {
    for (std::int64_t t0 = 0; t0 < t; t0 += 8) {
      auto payload = (v + t0) % 3 == 0 ? NoisePayload(&rng, 700 + t0)
                                       : StructuredPayload(&rng, 900 + t0);
      archive.Add(v, t0, 8, std::move(payload));
    }
  }
  return archive;
}

// Real codec payloads: a [2, 64, 32, 32] climate field sz-encoded through
// EncodeSession at a 1% relative bound.
DatasetArchive SzClimateArchive() {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 64;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 2026;
  const Tensor field = data::GenerateClimate(spec);
  auto codec = api::Compressor::Create("sz");
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 0.01};
  api::EncodeSession session(codec.get(), spec.variables, spec.height,
                             spec.width, options);
  session.Push(field);
  return session.Finish();
}

// Runs `fn`, which must throw ArchiveError, and returns the fault.
template <typename Fn>
ArchiveFault FaultOf(Fn&& fn) {
  try {
    fn();
  } catch (const ArchiveError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "no ArchiveError thrown";
  return ArchiveFault::kIo;
}

bool EntriesEqual(const DatasetArchive& a, const DatasetArchive& b) {
  if (a.entries().size() != b.entries().size()) return false;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    if (x.variable != y.variable || x.t0 != y.t0 ||
        x.valid_frames != y.valid_frames || x.payload != y.payload) {
      return false;
    }
  }
  return true;
}

TEST(ContainerV4, RoundTripsAtEveryLevelWithByteIdenticalArchives) {
  for (const bool real_payloads : {false, true}) {
    SCOPED_TRACE(real_payloads ? "sz climate payloads" : "synthetic payloads");
    const DatasetArchive archive =
        real_payloads ? SzClimateArchive() : MakeArchive(11);
    std::vector<std::uint8_t> scalar_bytes;
    {
      simd::ScopedIsaOverride force(simd::IsaLevel::kScalar);
      scalar_bytes = archive.Serialize();
    }
    // The filter pipeline actually engages on this data: smaller than the
    // same records stored raw.
    EXPECT_LT(scalar_bytes.size(),
              archive.Serialize({.forced_filter = FilterSpec{}}).size());
    for (const simd::IsaLevel level : TestableLevels()) {
      simd::ScopedIsaOverride override_level(level);
      const auto bytes = archive.Serialize();
      // The archive a host writes never depends on its ISA.
      EXPECT_EQ(bytes, scalar_bytes) << "level=" << static_cast<int>(level);
      const DatasetArchive back = DatasetArchive::Deserialize(bytes);
      EXPECT_EQ(back.codec(), archive.codec());
      EXPECT_EQ(back.window(), archive.window());
      EXPECT_TRUE(EntriesEqual(archive, back));
      for (std::int64_t t = 0; t < 16; ++t) {
        EXPECT_EQ(back.norm(1, t).mean, archive.norm(1, t).mean);
        EXPECT_EQ(back.norm(1, t).range, archive.norm(1, t).range);
      }
    }
  }
}

TEST(ContainerV4, ForcedFilterHookAppliesToEveryRecord) {
  const DatasetArchive archive = MakeArchive(12);
  const ArchiveWriteOptions forced{
      .forced_filter =
          FilterSpec{FilterChain::kDelta, 1, FilterBackend::kGlz}};
  const auto bytes = archive.Serialize(forced);
  EXPECT_TRUE(EntriesEqual(archive, DatasetArchive::Deserialize(bytes)));
  const ArchiveReader reader = ArchiveReader::FromBytes(bytes);
  for (const RecordRef& ref : reader.records()) {
    EXPECT_EQ(ref.filter.chain, FilterChain::kDelta);
    EXPECT_EQ(ref.filter.backend, FilterBackend::kGlz);
  }
}

TEST(ContainerV4, AppendMatchesOneShotSerializationByteForByte) {
  const std::string path =
      "/tmp/glsc_container_v4_append_" + std::to_string(::getpid()) + ".glsca";
  std::filesystem::remove(path);

  const DatasetArchive first = MakeArchive(14, 16);
  const DatasetArchive more = MakeArchive(15, 8);

  // One-shot reference: the combined record set in a single [2, 24, 8, 8]
  // archive, more's records shifted by first's frame count and the norms
  // merged V-major.
  std::vector<data::FrameNorm> norms;
  for (std::int64_t v = 0; v < 2; ++v) {
    for (std::int64_t t = 0; t < 16; ++t) norms.push_back(first.norm(v, t));
    for (std::int64_t t = 0; t < 8; ++t) norms.push_back(more.norm(v, t));
  }
  DatasetArchive combined("sz", {2, 24, 8, 8}, 8, std::move(norms));
  for (const ArchiveEntry& e : first.entries()) {
    combined.Add(e.variable, e.t0, e.valid_frames, e.payload);
  }
  for (const ArchiveEntry& e : more.entries()) {
    combined.Add(e.variable, e.t0 + 16, e.valid_frames, e.payload);
  }

  // Append to a missing file creates it.
  DatasetArchive::AppendToFile(path, first);
  EXPECT_EQ(FileBytes(path), first.Serialize());
  // Appending the second batch grows it in place...
  DatasetArchive::AppendToFile(path, more);
  const auto bytes = FileBytes(path);
  // ...to exactly the bytes one-shot serialization would have produced.
  EXPECT_EQ(bytes, combined.Serialize());
  EXPECT_TRUE(EntriesEqual(combined, DatasetArchive::Deserialize(bytes)));
  std::filesystem::remove(path);
}

TEST(ContainerV4, HostileIndexFilterByteFailsTyped) {
  // Single small record: every index varint before the filter byte (count,
  // variable, t0, valid_frames) encodes in one byte, so the filter byte sits
  // at a deterministic offset.
  DatasetArchive archive("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  Rng rng(16);
  archive.Add(0, 0, 8, StructuredPayload(&rng, 600));
  auto bytes = archive.Serialize();
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 12, 8);
  bytes[index_offset + 4] = 0xFF;  // reserved filter bits set
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(bytes); }),
            ArchiveFault::kCorruptRecord);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kCorruptRecord);
}

TEST(ContainerV4, CorruptCompressedPayloadFailsTypedWithoutOverread) {
  DatasetArchive archive("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  Rng rng(17);
  archive.Add(0, 0, 8, StructuredPayload(&rng, 2000));
  const auto clean = archive.Serialize();
  const ArchiveReader probe = ArchiveReader::FromBytes(clean);
  ASSERT_EQ(probe.records().size(), 1u);
  const RecordRef ref = probe.records()[0];
  ASSERT_EQ(ref.filter.backend, FilterBackend::kGlz)
      << "payload unexpectedly stored raw; corruption test needs glz";
  ASSERT_LT(ref.length, ref.raw_size);

  // Stomp the stored stream (record header and index stay intact): 0xFF
  // tokens declare extended literal runs that blow past the declared raw
  // size, which the bounds-checked decoder must refuse.
  auto bytes = clean;
  for (std::uint64_t i = 0; i < ref.length; ++i) bytes[ref.offset + i] = 0xFF;
  const ArchiveReader reader = ArchiveReader::FromBytes(bytes);
  EXPECT_EQ(FaultOf([&] { reader.ReadPayload(0); }),
            ArchiveFault::kCorruptRecord);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kCorruptRecord);
}

TEST(ContainerV4, HostileFooterOffsetsFailWithoutOom) {
  const auto clean = MakeArchive(18).Serialize();
  {
    // norms-offset beyond index-offset.
    auto bytes = clean;
    const std::uint64_t lie = bytes.size();
    std::memcpy(bytes.data() + bytes.size() - 20, &lie, 8);
    EXPECT_THROW(ArchiveReader::FromBytes(bytes), ArchiveError);
    EXPECT_THROW(DatasetArchive::Deserialize(bytes), ArchiveError);
  }
  {
    // Truncation anywhere in the tail: typed failure, never a crash.
    for (const std::size_t cut : {1ul, 7ul, 19ul, 20ul, 45ul}) {
      auto bytes = clean;
      bytes.resize(bytes.size() - cut);
      EXPECT_THROW(ArchiveReader::FromBytes(bytes), ArchiveError);
      EXPECT_THROW(DatasetArchive::Deserialize(bytes), ArchiveError);
    }
  }
}

TEST(ContainerV4, RecordHeaderDisagreeingWithIndexFailsReadAll) {
  // Two-variable archive whose first record header (variable 0, t0 0,
  // valid_frames 8, filter, backend) is all single-byte fields.
  const auto clean = MakeArchive(22).Serialize();
  const std::uint64_t header =
      ArchiveReader::FromBytes(clean).layout().records_begin;
  for (std::uint64_t field = 0; field < 5; ++field) {
    auto bytes = clean;
    bytes[header + field] ^= 1;
    // The lazy open reads only header, footer and index, so it still opens;
    // the read-all path cross-checks the record header and must refuse.
    EXPECT_NO_THROW(ArchiveReader::FromBytes(bytes)) << "field " << field;
    EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
              ArchiveFault::kCorruptRecord)
        << "field " << field;
  }
}

TEST(ContainerV4, AppendOntoLyingFooterThrowsAndLeavesFileIntact) {
  // Per-process path: the native and _scalar registrations run concurrently.
  const std::string path = "/tmp/glsc_container_v4_lying_append_" +
                           std::to_string(::getpid()) + ".glsca";
  auto bytes = MakeArchive(23).Serialize();
  // norms-offset beyond index-offset.
  const std::uint64_t lie = bytes.size();
  std::memcpy(bytes.data() + bytes.size() - 20, &lie, 8);
  WriteFileBytes(path, bytes);
  EXPECT_THROW(DatasetArchive::AppendToFile(path, MakeArchive(24, 8)),
               ArchiveError);
  EXPECT_EQ(FileBytes(path), bytes);
  std::filesystem::remove(path);
}

TEST(ContainerV4, MmapAndPreadBackingsAreByteIdentical) {
  const std::string path = "/tmp/glsc_container_v4_backing_" +
                           std::to_string(::getpid()) + ".glsca";
  const DatasetArchive archive = MakeArchive(19);
  archive.WriteFile(path);
  const ArchiveReader mm = ArchiveReader::FromFile(path, FileBacking::kMmap);
  const ArchiveReader pr = ArchiveReader::FromFile(path, FileBacking::kPread);
  ASSERT_EQ(mm.records().size(), archive.entries().size());
  ASSERT_EQ(pr.records().size(), mm.records().size());
  for (std::size_t i = 0; i < mm.records().size(); ++i) {
    const auto payload = mm.ReadPayload(i);
    EXPECT_EQ(payload, pr.ReadPayload(i));
    EXPECT_EQ(payload, archive.entries()[i].payload);
  }
  EXPECT_EQ(mm.payload_bytes_fetched(), pr.payload_bytes_fetched());
  EXPECT_EQ(mm.decoded_payload_bytes(), pr.decoded_payload_bytes());
  std::filesystem::remove(path);
}

TEST(ContainerV4, ByteAccountingSeparatesStoredFromDecoded) {
  const DatasetArchive archive = MakeArchive(20);
  const ArchiveReader reader =
      ArchiveReader::FromBytes(archive.Serialize());
  EXPECT_EQ(reader.payload_bytes_fetched(), 0u);
  EXPECT_EQ(reader.decoded_payload_bytes(), 0u);
  std::uint64_t stored = 0;
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const auto payload = reader.ReadPayload(i);
    EXPECT_EQ(payload.size(), reader.records()[i].raw_size);
    stored += reader.records()[i].length;
    raw += reader.records()[i].raw_size;
  }
  // fetched() counts on-disk bytes, decoded() counts raw bytes handed out;
  // on a filtered archive the former is strictly smaller.
  EXPECT_EQ(reader.payload_bytes_fetched(), stored);
  EXPECT_EQ(reader.decoded_payload_bytes(), raw);
  EXPECT_LT(stored, raw);
}

TEST(ContainerV4, FilteredDecodeIsAllocationFreeAtSteadyState) {
  const std::string path =
      "/tmp/glsc_container_v4_ws_" + std::to_string(::getpid()) + ".glsca";
  MakeArchive(21).WriteFile(path);
  const ArchiveReader reader = ArchiveReader::FromFile(path);
  tensor::Workspace ws;
  std::vector<std::uint8_t> out;
  // Warm-up pass sizes the workspace slab and the output vector.
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    reader.ReadPayloadInto(i, &out, &ws);
  }
  const auto slabs = ws.stats().slab_allocations;
  for (int pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      reader.ReadPayloadInto(i, &out, &ws);
      EXPECT_EQ(out, reader.ReadPayload(i));
    }
  }
  EXPECT_EQ(ws.stats().slab_allocations, slabs)
      << "steady-state filtered decode allocated a new workspace slab";
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace glsc::core

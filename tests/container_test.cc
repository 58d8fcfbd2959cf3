// Tests for the on-disk archive format: serialization round-trips, format
// validation (corrupt/truncated/hostile input, retired v1-v3 layouts refused
// at open), and end-to-end file compress -> write -> read -> decompress.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "api/adapters.h"
#include "archive_surgery.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/registry.h"
#include "tensor/metrics.h"

namespace glsc::core {
namespace {

CompressedWindow MakeFakeWindow(Rng& rng) {
  CompressedWindow w;
  w.keyframes.y_stream.resize(40 + rng.UniformInt(100));
  for (auto& b : w.keyframes.y_stream) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  w.keyframes.z_stream.resize(10 + rng.UniformInt(30));
  for (auto& b : w.keyframes.z_stream) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  w.keyframes.y_shape = {4, 8, 4, 4};
  w.keyframes.z_shape = {4, 4, 1, 1};
  w.window_shape = {8, 16, 16};
  w.sample_seed = static_cast<std::uint32_t>(rng.NextU64());
  w.corrections.resize(8);
  for (auto& c : w.corrections) {
    c.resize(rng.UniformInt(50));
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return w;
}

std::vector<std::uint8_t> Payload(const CompressedWindow& window) {
  ByteWriter out;
  SerializeWindow(window, &out);
  return out.Release();
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

bool WindowsEqual(const CompressedWindow& a, const CompressedWindow& b) {
  return a.keyframes.y_stream == b.keyframes.y_stream &&
         a.keyframes.z_stream == b.keyframes.z_stream &&
         a.keyframes.y_shape == b.keyframes.y_shape &&
         a.keyframes.z_shape == b.keyframes.z_shape &&
         a.window_shape == b.window_shape && a.sample_seed == b.sample_seed &&
         a.corrections == b.corrections;
}

TEST(Container, WindowRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const CompressedWindow original = MakeFakeWindow(rng);
    ByteWriter out;
    SerializeWindow(original, &out);
    ByteReader in(out.bytes());
    const CompressedWindow back = DeserializeWindow(&in);
    EXPECT_TRUE(WindowsEqual(original, back)) << "iteration " << i;
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(Container, ArchiveRoundTrip) {
  Rng rng(5);
  std::vector<data::FrameNorm> norms(2 * 11);
  for (auto& n : norms) {
    n.mean = rng.NormalF();
    n.range = 1.0f + rng.UniformF();
  }
  // T = 11 with window 8: variable 0 ends in a padded 3-frame tail record.
  // (Records sharing a t0 must agree on valid_frames, so the tail sits at
  // t0 = 8 where no other variable has a record.)
  DatasetArchive archive("glsc", {2, 11, 16, 16}, 8, norms);
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  archive.Add(0, 8, 3, Payload(MakeFakeWindow(rng)));  // padded tail record
  archive.Add(1, 0, 8, Payload(MakeFakeWindow(rng)));

  const auto bytes = archive.Serialize();
  const DatasetArchive back = DatasetArchive::Deserialize(bytes);
  EXPECT_EQ(back.codec(), "glsc");
  EXPECT_EQ(back.dataset_shape(), archive.dataset_shape());
  EXPECT_EQ(back.window(), 8);
  ASSERT_EQ(back.entries().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.entries()[i].variable, archive.entries()[i].variable);
    EXPECT_EQ(back.entries()[i].t0, archive.entries()[i].t0);
    EXPECT_EQ(back.entries()[i].valid_frames,
              archive.entries()[i].valid_frames);
    EXPECT_EQ(back.entries()[i].payload, archive.entries()[i].payload);
  }
  EXPECT_FLOAT_EQ(back.norm(1, 3).mean, archive.norm(1, 3).mean);
}

// The retired layouts, hand-assembled from `archive` (whose payloads must be
// "glsc" record bodies for v1): v1 = GLSC-only records with no codec id and
// no valid_frames, v2 = inline norms + counted records, v3 = v2 plus a
// footer index (u64 index-offset | "GIDX").
std::vector<std::uint8_t> LegacyBytes(const DatasetArchive& archive,
                                      int version) {
  ByteWriter out;
  out.PutBytes("GLSC", 4);
  out.PutU8(static_cast<std::uint8_t>(version));
  if (version >= 2) out.PutString(archive.codec());
  for (const auto d : archive.dataset_shape()) {
    out.PutU64(static_cast<std::uint64_t>(d));
  }
  out.PutU64(static_cast<std::uint64_t>(archive.window()));
  for (const data::FrameNorm& n : archive.norms()) {
    out.PutF32(n.mean);
    out.PutF32(n.range);
  }
  out.PutVarU64(archive.entries().size());
  std::vector<std::uint64_t> offsets;
  for (const ArchiveEntry& e : archive.entries()) {
    out.PutVarU64(static_cast<std::uint64_t>(e.variable));
    out.PutVarU64(static_cast<std::uint64_t>(e.t0));
    if (version >= 2) {
      out.PutVarU64(static_cast<std::uint64_t>(e.valid_frames));
      out.PutVarU64(e.payload.size());
    }
    offsets.push_back(out.size());
    out.PutBytes(e.payload.data(), e.payload.size());
  }
  if (version == 3) {
    const std::uint64_t index_offset = out.size();
    out.PutVarU64(archive.entries().size());
    for (std::size_t i = 0; i < archive.entries().size(); ++i) {
      const ArchiveEntry& e = archive.entries()[i];
      out.PutVarU64(static_cast<std::uint64_t>(e.variable));
      out.PutVarU64(static_cast<std::uint64_t>(e.t0));
      out.PutVarU64(static_cast<std::uint64_t>(e.valid_frames));
      out.PutVarU64(offsets[i]);
      out.PutVarU64(e.payload.size());
    }
    out.PutU64(index_offset);
    out.PutBytes("GIDX", 4);
  }
  return out.Release();
}

TEST(Container, RetiredV1V2V3LayoutsAreRefusedAtOpen) {
  // Version 4 is the only layout read: well-formed v1-v3 bytes fail at open
  // with kNotAnArchive through every entry point, and nothing converts them.
  Rng rng(17);
  std::vector<data::FrameNorm> norms(16);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i] = {static_cast<float>(i), 1.0f + static_cast<float>(i)};
  }
  DatasetArchive archive("glsc", {1, 16, 16, 16}, 8, norms);
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  archive.Add(0, 8, 8, Payload(MakeFakeWindow(rng)));
  const std::string path =
      "/tmp/glsc_container_legacy_" + std::to_string(::getpid()) + ".glsca";
  for (const int version : {1, 2, 3}) {
    const std::vector<std::uint8_t> bytes = LegacyBytes(archive, version);
    WriteFileBytes(path, bytes);
    EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(bytes); }),
              ArchiveFault::kNotAnArchive)
        << "v" << version;
    EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
              ArchiveFault::kNotAnArchive)
        << "v" << version;
    EXPECT_EQ(FaultOf([&] { DatasetArchive::ReadFile(path); }),
              ArchiveFault::kNotAnArchive)
        << "v" << version;
    for (const FileBacking backing : {FileBacking::kMmap, FileBacking::kPread}) {
      EXPECT_EQ(FaultOf([&] { ArchiveReader::FromFile(path, backing); }),
                ArchiveFault::kNotAnArchive)
          << "v" << version;
    }
    // An old archive cannot be grown in place either: the open check refuses
    // it before any byte is written.
    EXPECT_EQ(FaultOf([&] { DatasetArchive::AppendToFile(path, archive); }),
              ArchiveFault::kNotAnArchive)
        << "v" << version;
    std::vector<std::uint8_t> after;
    ASSERT_TRUE(ReadFileBytes(path, &after));
    EXPECT_EQ(after, bytes) << "v" << version;
  }
  std::filesystem::remove(path);
  // The same records written today open fine.
  EXPECT_EQ(DatasetArchive::Deserialize(archive.Serialize()).entries().size(),
            2u);
}

TEST(Container, RejectsCorruptMagic) {
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  auto bytes = archive.Serialize();
  bytes[0] = 'X';
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kNotAnArchive);
}

TEST(Container, RejectsUnknownVersion) {
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  auto bytes = archive.Serialize();
  bytes[4] = 99;  // version byte
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kNotAnArchive);
}

TEST(Container, TruncatedArchiveThrowsInsteadOfCrashing) {
  Rng rng(23);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  const auto bytes = archive.Serialize();
  // Every truncation point must raise, never OOM or read out of bounds.
  for (std::size_t len : {bytes.size() - 1, bytes.size() / 2,
                          bytes.size() / 4, std::size_t{6}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(DatasetArchive::Deserialize(cut), ArchiveError)
        << "length " << len;
  }
}

TEST(Container, EmptyAndTinyInputsThrowTyped) {
  // Fuzzer-found (UBSan): a zero-byte input used to reach MemorySource with
  // a null backing pointer and hand memcpy null arguments. Empty and
  // sub-magic-sized inputs must raise a typed ArchiveError through both
  // entry points, never touch memory.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{5}}) {
    const std::vector<std::uint8_t> bytes(len, 'G');
    for (const ArchiveFault fault :
         {FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
          FaultOf([&] { ArchiveReader::FromBytes(bytes); })}) {
      EXPECT_TRUE(fault == ArchiveFault::kNotAnArchive ||
                  fault == ArchiveFault::kTruncated)
          << "length " << len;
    }
  }
}

TEST(Container, HostileLengthsThrowInsteadOfAllocating) {
  // An index entry whose stored (and raw) length claims 2^60 bytes: the size
  // validation must reject it at open, before any payload buffer is sized.
  Rng rng(19);
  DatasetArchive small("glsc", {1, 8, 16, 16}, 8,
                       std::vector<data::FrameNorm>(8));
  small.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  const auto clean = small.Serialize({.forced_filter = FilterSpec{}});
  std::vector<RecordRef> records = ArchiveReader::FromBytes(clean).records();
  records[0].length = records[0].raw_size = 1ull << 60;
  const auto hostile = testing::WithIndex(clean, records);
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(hostile); }),
            ArchiveFault::kCorruptRecord);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(hostile); }),
            ArchiveFault::kCorruptRecord);

  // A glsc record body whose y-stream length claims 2^60 bytes. Payloads are
  // opaque to the container, so it is stored and read back verbatim; the
  // length check in DeserializeWindow, which every glsc decode runs on a
  // payload read from an archive, must reject it before any resize happens
  // (a 2^60-byte resize would throw bad_alloc or length_error instead).
  ByteWriter body;
  body.PutVarU64(1ull << 60);  // y-stream "length"
  body.PutU8(0);
  {
    ByteReader in(body.bytes());
    EXPECT_THROW(DeserializeWindow(&in), std::runtime_error);
  }
  DatasetArchive carrier("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  carrier.Add(0, 0, 8, body.bytes());
  const DatasetArchive stored = DatasetArchive::Deserialize(carrier.Serialize());
  ASSERT_EQ(stored.entries().size(), 1u);
  {
    ByteReader in(stored.entries()[0].payload);
    EXPECT_THROW(DeserializeWindow(&in), std::runtime_error);
  }

  // Hostile header: dataset dims whose norm count could never fit the input.
  ByteWriter huge;
  huge.PutBytes("GLSC", 4);
  huge.PutU8(kArchiveVersion);
  huge.PutString("glsc");
  huge.PutU64(1ull << 40);  // V
  huge.PutU64(1ull << 40);  // T
  huge.PutU64(16);
  huge.PutU64(16);
  huge.PutU64(8);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(huge.bytes()); }),
            ArchiveFault::kCorruptRecord);

  // V = T = 2^32 would wrap V*T to zero and sneak past a naive norm-count
  // guard; the per-dimension cap must reject it first.
  ByteWriter wrap;
  wrap.PutBytes("GLSC", 4);
  wrap.PutU8(kArchiveVersion);
  wrap.PutString("glsc");
  wrap.PutU64(1ull << 32);  // V
  wrap.PutU64(1ull << 32);  // T
  wrap.PutU64(16);
  wrap.PutU64(16);
  wrap.PutU64(8);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(wrap.bytes()); }),
            ArchiveFault::kCorruptRecord);

  // Header-only v4 archive with V*T*H*W = 2^62 elements: each dimension
  // passes the per-dimension cap, but the 2^64 float bytes of the decoded
  // dataset would wrap an allocation size to zero. Both entry points must
  // reject it at open, before any decoder can allocate.
  const auto oversized =
      DatasetArchive("sz", {1, 2, 1ll << 31, 1ll << 30}, 8,
                     std::vector<data::FrameNorm>(2))
          .Serialize();
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(oversized); }),
            ArchiveFault::kCorruptRecord);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(oversized); }),
            ArchiveFault::kCorruptRecord);
}

TEST(Container, RejectsRecordOutsideDatasetBounds) {
  Rng rng(29);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  const auto bytes = archive.Serialize();
  const std::vector<RecordRef> clean =
      ArchiveReader::FromBytes(bytes).records();
  ASSERT_EQ(clean.size(), 1u);
  // Index surgery: each lie moves the record outside the [1, 8] dataset or
  // the 8-frame window, with the record bytes themselves left intact.
  const auto lie = [&](auto&& patch) {
    std::vector<RecordRef> records = clean;
    patch(records[0]);
    return testing::WithIndex(bytes, records);
  };
  for (const auto& hostile :
       {lie([](RecordRef& r) { r.variable = 7; }),
        lie([](RecordRef& r) { r.t0 = 4; }),
        lie([](RecordRef& r) { r.valid_frames = 9; }),
        lie([](RecordRef& r) { r.valid_frames = 0; })}) {
    EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(hostile); }),
              ArchiveFault::kCorruptIndex);
    EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(hostile); }),
              ArchiveFault::kCorruptIndex);
  }
  // The unpatched rewrite is the writer's own index: it still opens.
  EXPECT_EQ(testing::WithIndex(bytes, clean), bytes);
}

TEST(Container, EndToEndFileRoundTrip) {
  // Train a tiny pipeline, archive a dataset to disk, read it back with a
  // fresh compressor instance (same artifact), decompress and compare. The
  // artifacts dir is deliberately nested-and-missing: GetOrTrainGlsc must
  // create it rather than silently dropping the cache (regression).
  data::FieldSpec spec;
  spec.frames = 16;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 31;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 6;
  config.vae.hyper_channels = 2;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.schedule_steps = 30;
  config.window = 8;
  config.interval = 3;
  config.sample_steps = 4;
  TrainBudget budget;
  budget.vae.iterations = 60;
  budget.vae.crop = 16;
  budget.vae.log_every = 0;
  budget.diffusion.iterations = 40;
  budget.diffusion.crop = 16;
  budget.diffusion.log_every = 0;
  budget.pca_fit_windows = 2;
  // Per-process paths: the native and _scalar registrations run concurrently.
  const std::string root =
      "/tmp/glsc_container_artifacts_" + std::to_string(::getpid());
  const std::string artifacts = root + "/nested/deeper";
  std::filesystem::remove_all(root);
  auto compressor =
      GetOrTrainGlsc(dataset, config, budget, artifacts, "container_e2e");
  EXPECT_TRUE(FileExists(ArtifactPath(artifacts, "container_e2e")));

  const DatasetArchive archive =
      CompressDataset(compressor.get(), dataset, 0.2);
  EXPECT_EQ(archive.codec(), "glsc");
  const std::string path =
      "/tmp/glsc_container_test_" + std::to_string(::getpid()) + ".glsca";
  archive.WriteFile(path);

  // Fresh compressor from the same artifact; fresh archive from disk.
  auto other = GetOrTrainGlsc(dataset, config, budget, artifacts,
                              "container_e2e");
  const DatasetArchive loaded = DatasetArchive::ReadFile(path);
  const Tensor decompressed =
      loaded.DecompressAll(api::WrapGlsc(other.get()).get());
  ASSERT_EQ(decompressed.shape(), dataset.raw().shape());

  // Same bound guarantee transfers through the file: per-frame normalized L2
  // <= tau means physical error <= tau * range.
  const std::int64_t hw = 16 * 16;
  for (std::int64_t v = 0; v < dataset.variables(); ++v) {
    for (std::int64_t t = 0; t < dataset.frames(); ++t) {
      double l2 = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d =
            dataset.raw()[(v * 16 + t) * hw + i] -
            decompressed[(v * 16 + t) * hw + i];
        l2 += d * d;
      }
      EXPECT_LE(std::sqrt(l2),
                0.2 * dataset.norm(v, t).range * (1.0 + 1e-3) + 1e-9)
          << "v=" << v << " t=" << t;
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove_all(root);
}

TEST(Container, ArchiveSizeMatchesAccountedBytes) {
  Rng rng(11);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  CompressedWindow w = MakeFakeWindow(rng);
  const std::size_t accounted = w.TotalBytes();
  archive.Add(0, 0, 8, Payload(w));
  const auto bytes = archive.Serialize();
  // On-disk size should be close to the accounted size (within the small
  // container framing: magic, version, codec id, dataset dims, record
  // shapes).
  EXPECT_LT(bytes.size(), accounted + 160);
}

}  // namespace
}  // namespace glsc::core

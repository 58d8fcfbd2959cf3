// Seed-corpus generator for the fuzz/ harnesses.
//
//   glsc_make_corpus OUT_DIR
//
// writes OUT_DIR/archive/*.bin (container v4 bytes from the model-free test
// codecs and every forced filter chain, plus truncated/corrupted variants so
// even a coverage-blind replay run reaches the error paths) and
// OUT_DIR/range_coder/*.bin (structured inputs for the round-trip
// differential). Everything is deterministic: fixed seeds, fixed shapes.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "codec/range_coder.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"

namespace {

using glsc::Tensor;

void WriteBlob(const std::filesystem::path& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s (%zu bytes)\n", path.c_str(), bytes.size());
}

// A small archive: [1, 20, 16, 16] climate field through `codec_name`. With
// window 16 that is one full record plus a padded 4-frame tail.
glsc::core::DatasetArchive SmallArchive(const std::string& codec_name,
                                        std::uint64_t seed) {
  glsc::data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 20;
  spec.height = 16;
  spec.width = 16;
  spec.seed = seed;
  const Tensor field = glsc::data::GenerateClimate(spec);

  auto codec = glsc::api::Compressor::Create(codec_name);
  glsc::api::SessionOptions options;
  options.bound = {glsc::api::ErrorBoundMode::kRelative, 0.05};
  glsc::api::EncodeSession session(codec.get(), spec.variables, spec.height,
                                   spec.width, options);
  session.Push(field);
  return session.Finish();
}

// A minimal synthetic v4 archive (no codec session, compressible payloads)
// so the forced-filter / corrupted seeds stay small on disk.
glsc::core::DatasetArchive TinyArchive() {
  std::vector<glsc::data::FrameNorm> norms(8);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i].mean = 0.25f * static_cast<float>(i);
    norms[i].range = 1.0f;
  }
  glsc::core::DatasetArchive archive("sz", {1, 8, 8, 8}, 8, norms);
  std::vector<std::uint8_t> payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i / 5);
  }
  archive.Add(0, 0, 8, std::move(payload));
  return archive;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::filesystem::path out_dir(argv[1]);
  const auto archive_dir = out_dir / "archive";
  const auto coder_dir = out_dir / "range_coder";
  std::filesystem::create_directories(archive_dir);
  std::filesystem::create_directories(coder_dir);

  // --- Archive seeds: one selection-driven archive from each model-free
  // codec (cdc/gcd/vae_sr need trained artifacts; the fuzzers only care
  // about container structure, which is codec-independent), then damaged
  // variants that reach the rejection paths without coverage feedback: a
  // truncated stream, a severed 20-byte footer and a corrupted index byte.
  for (const std::string codec : {"sz", "zfp"}) {
    const auto archive = SmallArchive(codec, 7 + codec.size());
    WriteBlob(archive_dir / ("v4_" + codec + ".bin"), archive.Serialize());
  }
  {
    const auto v4 = SmallArchive("sz", 23).Serialize();
    std::vector<std::uint8_t> truncated(v4.begin(),
                                        v4.begin() + v4.size() / 2);
    WriteBlob(archive_dir / "v4_truncated.bin", truncated);

    std::vector<std::uint8_t> no_footer(
        v4.begin(), v4.end() - glsc::core::kFooterBytes);
    WriteBlob(archive_dir / "v4_no_footer.bin", no_footer);

    // The index block ends right before the footer.
    std::vector<std::uint8_t> bad_index = v4;
    bad_index[bad_index.size() - glsc::core::kFooterBytes - 1] ^= 0xFF;
    WriteBlob(archive_dir / "v4_bad_index.bin", bad_index);
  }

  // --- Forced filter chains on a tiny archive: every chain with the LZ
  // backend on and off, and damaged variants aimed at the filter decode
  // paths (a lying filter id in the index, a stomped glz stream under an
  // intact index). ---
  {
    using glsc::core::FilterBackend;
    using glsc::core::FilterChain;
    using glsc::core::FilterSpec;
    const auto tiny = TinyArchive();
    const struct {
      const char* name;
      FilterSpec spec;
    } forced[] = {
        {"none_glz", {FilterChain::kNone, 1, FilterBackend::kGlz}},
        {"delta", {FilterChain::kDelta, 1, FilterBackend::kNone}},
        {"delta_glz", {FilterChain::kDelta, 1, FilterBackend::kGlz}},
        {"bitshuffle", {FilterChain::kBitshuffle, 4, FilterBackend::kNone}},
        {"bitshuffle_glz", {FilterChain::kBitshuffle, 4, FilterBackend::kGlz}},
        {"delta_bitshuffle_glz",
         {FilterChain::kDeltaBitshuffle, 2, FilterBackend::kGlz}},
    };
    for (const auto& f : forced) {
      WriteBlob(archive_dir / ("v4_forced_" + std::string(f.name) + ".bin"),
                tiny.Serialize({.forced_filter = f.spec}));
    }

    const auto clean = tiny.Serialize();
    // Lying filter id: reserved bits set on the index's first entry (count
    // and the leading varints are all single-byte here, so the filter byte
    // sits 4 bytes past the index offset).
    std::vector<std::uint8_t> lying = clean;
    std::uint64_t index_offset = 0;
    std::memcpy(&index_offset, lying.data() + lying.size() - 12, 8);
    lying[index_offset + 4] = 0xFF;
    WriteBlob(archive_dir / "v4_lying_filter_id.bin", lying);

    // Corrupt glz stream: record header and index intact, stored bytes
    // stomped with 0xFF extended-literal tokens.
    const auto reader = glsc::core::ArchiveReader::FromBytes(clean);
    std::vector<std::uint8_t> corrupt = clean;
    const auto& ref = reader.records().at(0);
    for (std::uint64_t i = 0; i < ref.length; ++i) {
      corrupt[ref.offset + i] = 0xFF;
    }
    WriteBlob(archive_dir / "v4_corrupt_glz.bin", corrupt);
  }

  // --- Range-coder seeds: [header | symbols] in the harness's input shape
  // (byte 0 picks the symbol count, bytes 1-3 shape the table, the rest is
  // the symbol stream). Spread over degenerate and wide tables.
  {
    const std::vector<std::vector<std::uint8_t>> shapes = {
        {0, 0, 0, 0},                      // 2 symbols, minimal freqs
        {62, 250, 1, 7},                   // 64 symbols, skewed
        {14, 100, 100, 100},               // 16 symbols, flat
    };
    int index = 0;
    for (const auto& header : shapes) {
      std::vector<std::uint8_t> blob = header;
      for (int i = 0; i < 96; ++i) {
        blob.push_back(static_cast<std::uint8_t>((i * 37 + index * 11) & 0xFF));
      }
      WriteBlob(coder_dir / ("seed_" + std::to_string(index++) + ".bin"),
                blob);
    }
  }
  std::printf("corpus written under %s\n", out_dir.c_str());
  return 0;
}

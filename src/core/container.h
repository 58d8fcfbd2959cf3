// On-disk container format for compressed data.
//
// A `DatasetArchive` packs the records for a whole [V, T, H, W] dataset —
// per-frame normalization parameters included — so decompression needs only
// the archive file plus the model artifact. Every record (and the norms
// block) declares a filter chain + lossless backend (core/filters.h) applied
// over its opaque per-codec payload at serialize time and inverted
// transparently on read. Layout (little-endian):
//
//   archive  := magic "GLSC" u8 version=4 | string codec
//               | u64 V,T,H,W | u64 window
//               | records | norms-block | index | footer
//   record   := varint variable | varint t0 | varint valid_frames
//               | u8 filter | u8 backend | varint raw-size
//               | varint stored-size | stored-bytes
//   norms    := u8 filter | u8 backend | varint raw-size
//               | varint stored-size | stored-bytes     (raw = V*T x
//               (f32 mean, f32 range))
//   index    := varint count | count x (varint variable | varint t0
//               | varint valid_frames | u8 filter | u8 backend
//               | varint raw-size | varint offset | varint stored-size)
//   footer   := u64 norms-offset | u64 index-offset | magic "GIDX"
//
// The index mirrors each record's metadata and stores the ABSOLUTE byte
// offset of its stored payload, so core::ArchiveReader (archive_reader.h)
// serves a record by reading the header from the front, the fixed 20-byte
// footer from the back, the index block the footer points at, and then only
// the stored bytes a query actually touches — the c-blosc2 super-chunk trick
// applied to codec-opaque diffusion records.
//
// Design notes:
//  - The record area carries no leading count and the norms sit in the
//    rewritten tail, so AppendToFile can extend an archive by overwriting
//    from norms-offset with the new records + rebuilt norms/index/footer —
//    old record bytes are never rewritten (cf. blosc2_schunk_append_file).
//    The header's fixed-width u64 T is updated in place.
//  - Filter selection is per record by trial on a sampled prefix (see
//    core/filters.h); incompressible payloads honestly store raw
//    (filter = backend = none), so decode cost is only paid where bytes were
//    actually saved.
//  - In-memory ArchiveEntry payloads are ALWAYS raw: filtering exists only
//    on the serialized boundary, and codecs never see stored bytes.
//
// `valid_frames` <= window: streams whose T is not a multiple of the window
// pad the final record up to the window length; only the first valid_frames
// decoded frames are real (see api/session.h).
//
// Version 4 is the only layout written or read. Bytes carrying any other
// version (the retired v1-v3 layouts included) are refused at open with
// ArchiveError(kNotAnArchive); nothing converts them.
//
// core::ArchiveReader (archive_reader.cc) is the only parser of these bytes:
// Deserialize and ReadFile are a reader plus a read-all loop, and
// AppendToFile takes the old index and norms from a reader. All length/
// count/size fields are validated against the remaining input before any
// allocation, and all read failures are typed core::ArchiveError — a
// truncated or hostile archive never OOMs or crashes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/filters.h"
#include "core/glsc_compressor.h"
#include "data/dataset.h"

namespace glsc::api {
class Compressor;
}  // namespace glsc::api

namespace glsc::core {

// Wire constants of the layout above, shared by the writer (container.cc)
// and the parser (archive_reader.cc).
inline constexpr char kArchiveMagic[4] = {'G', 'L', 'S', 'C'};
inline constexpr char kIndexMagic[4] = {'G', 'I', 'D', 'X'};
inline constexpr std::uint8_t kArchiveVersion = 4;
inline constexpr std::uint64_t kFooterBytes = 20;  // 2 x u64 | "GIDX"

// The "glsc" codec payload body.
void SerializeWindow(const CompressedWindow& window, ByteWriter* out);
CompressedWindow DeserializeWindow(ByteReader* in);

struct ArchiveEntry {
  std::int64_t variable = 0;
  std::int64_t t0 = 0;
  std::int64_t valid_frames = 0;       // true (un-padded) frames in the record
  std::vector<std::uint8_t> payload;   // codec-specific bytes (always RAW)
};

struct ArchiveWriteOptions {
  // Test/fuzz/bench hook: bypass trial selection and force this spec on
  // every record and the norms block (FilterSpec{} stores everything raw).
  std::optional<FilterSpec> forced_filter;
};

class DatasetArchive {
 public:
  // `dataset_shape` is [V, T, H, W] and `norms` holds V*T norms, V-major;
  // anything else throws ArchiveError(kCorruptRecord), so every archive
  // (written, read back or decoded in memory) carries one norm per frame.
  DatasetArchive(std::string codec, Shape dataset_shape, std::int64_t window,
                 std::vector<data::FrameNorm> norms);

  void Add(std::int64_t variable, std::int64_t t0, std::int64_t valid_frames,
           std::vector<std::uint8_t> payload);

  // Registry name of the codec whose payloads the records hold.
  const std::string& codec() const { return codec_; }
  const Shape& dataset_shape() const { return dataset_shape_; }
  std::int64_t window() const { return window_; }
  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  const data::FrameNorm& norm(std::int64_t variable, std::int64_t t) const;
  // All norms, V-major; V*T of them.
  const std::vector<data::FrameNorm>& norms() const { return norms_; }

  std::vector<std::uint8_t> Serialize(
      const ArchiveWriteOptions& options = {}) const;
  // Parses `bytes` (moved into an ArchiveReader, never copied) and reads
  // every record. Beyond the reader's open-time checks, every record header
  // must mirror its index entry and the records must tile the record
  // area. Throws ArchiveError.
  static DatasetArchive Deserialize(std::vector<std::uint8_t> bytes);

  void WriteFile(const std::string& path) const;
  // Deserialize over a pread-backed file reader.
  static DatasetArchive ReadFile(const std::string& path);

  // Extends the archive at `path` with `more`'s records WITHOUT rewriting
  // the existing record bytes: overwrites from the old norms-offset with
  // more's (filtered) records, the merged norms block, the rebuilt index and
  // a fresh footer, then patches the header's u64 T in place. more's t0s are
  // shifted by the existing archive's frame count, so `more` is authored as
  // its own [V, T_more, H, W] archive. codec, V, H, W and window must match.
  // The result is byte-identical to one-shot serialization of the combined
  // record set (filter selection is deterministic in the payload bytes).
  // The old index, norms and splice offsets come from a pread-backed
  // ArchiveReader, so the existing file is never loaded whole, and a corrupt
  // header, footer, index or norms block throws ArchiveError before any byte
  // is written (bytes of any other version included: kNotAnArchive). Creates
  // the file when it does not exist.
  // Not crash-atomic: a failure mid-append leaves the tail unreadable (the
  // footer is written last), like any in-place container mutation.
  static void AppendToFile(const std::string& path, const DatasetArchive& more,
                           const ArchiveWriteOptions& options = {});

  // Decompresses every record back into a full [V, T, H, W] tensor in
  // physical units (frames the archive does not cover stay zero): an
  // ArchiveReader over this archive plus one serve::DecodeScheduler::GetAll
  // (one worker, no cache). `codec` must match codec() — typically
  // Compressor::Create(archive.codec(), ...) loaded with the right artifact,
  // or api::WrapGlsc around a bare GLSC pipeline. Throws ArchiveError when a
  // record fails the reader's open-time check.
  Tensor DecompressAll(api::Compressor* codec) const;

 private:
  std::string codec_ = "glsc";
  Shape dataset_shape_;  // [V, T, H, W]
  std::int64_t window_ = 0;
  std::vector<data::FrameNorm> norms_;  // V*T entries
  std::vector<ArchiveEntry> entries_;
};

// Convenience: compresses every window of `dataset` at per-frame L2 bound tau
// through the GLSC pipeline (streams the dataset through an EncodeSession, so
// trailing frames that do not fill a window are covered via padded records).
DatasetArchive CompressDataset(GlscCompressor* compressor,
                               const data::SequenceDataset& dataset,
                               double tau);

}  // namespace glsc::core

#include "core/container.h"

#include <filesystem>
#include <fstream>
#include <limits>

#include "api/adapters.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "serve/decode_scheduler.h"
#include "util/check.h"

namespace glsc::core {
namespace {

void PutShape(const Shape& shape, ByteWriter* out) { PutDims(shape, out); }
Shape GetShape(ByteReader* in) { return GetDimsChecked(in); }

// Reads a varint byte count that must fit in what is left of the stream —
// the guard that keeps truncated/hostile archives from OOMing via a huge
// resize before the actual read fails.
std::uint64_t GetCheckedLength(ByteReader* in, const char* what) {
  const std::uint64_t n = in->GetVarU64();
  GLSC_CHECK_MSG(n <= in->remaining(), "corrupt record: " << what << " length "
                                                          << n << " exceeds "
                                                          << in->remaining()
                                                          << " remaining bytes");
  return n;
}

// ---- write path ------------------------------------------------------------

std::vector<std::uint8_t> NormsRawBytes(
    const std::vector<data::FrameNorm>& norms) {
  ByteWriter w;
  for (const auto& n : norms) {
    w.PutF32(n.mean);
    w.PutF32(n.range);
  }
  return w.Release();
}

FilteredBlock EncodeBlock(const std::uint8_t* data, std::size_t n,
                          std::int64_t elem_hint,
                          const std::optional<FilterSpec>& forced) {
  if (forced.has_value()) {
    return {*forced, EncodeFiltered(data, n, *forced)};
  }
  return EncodeWithSelection(data, n, elem_hint);
}

// Filters one entry's payload, appends its on-disk record form and returns
// its index entry (offset = ABSOLUTE offset of the stored bytes). `base` is
// the absolute file offset at which `out`'s bytes will land (0 for one-shot
// serialization, the old norms-offset for AppendToFile); `t0_shift` relocates
// appended records onto the combined time axis.
RecordRef PutRecord(ByteWriter* out, std::uint64_t base,
                    const ArchiveEntry& entry,
                    const std::optional<FilterSpec>& forced,
                    std::int64_t t0_shift) {
  const FilteredBlock block =
      EncodeBlock(entry.payload.data(), entry.payload.size(), 1, forced);
  RecordRef r;
  r.variable = entry.variable;
  r.t0 = entry.t0 + t0_shift;
  r.valid_frames = entry.valid_frames;
  r.filter = block.spec;
  r.raw_size = entry.payload.size();
  r.length = block.stored.size();
  out->PutVarU64(static_cast<std::uint64_t>(r.variable));
  out->PutVarU64(static_cast<std::uint64_t>(r.t0));
  out->PutVarU64(static_cast<std::uint64_t>(r.valid_frames));
  out->PutU8(r.filter.WireFilter());
  out->PutU8(r.filter.WireBackend());
  out->PutVarU64(r.raw_size);
  out->PutVarU64(r.length);
  r.offset = base + out->size();
  out->PutBytes(block.stored.data(), block.stored.size());
  return r;
}

// Writes the tail shared by Serialize and AppendToFile: the filtered norms
// block, the index over `records`, and the fixed 20-byte footer.
void PutTail(ByteWriter* out, std::uint64_t base,
             const std::vector<RecordRef>& records,
             const std::vector<data::FrameNorm>& norms,
             const std::optional<FilterSpec>& forced) {
  const std::uint64_t norms_offset = base + out->size();
  const std::vector<std::uint8_t> norms_raw = NormsRawBytes(norms);
  const FilteredBlock norms_block = EncodeBlock(
      norms_raw.data(), norms_raw.size(), sizeof(float), forced);
  out->PutU8(norms_block.spec.WireFilter());
  out->PutU8(norms_block.spec.WireBackend());
  out->PutVarU64(norms_raw.size());
  out->PutVarU64(norms_block.stored.size());
  out->PutBytes(norms_block.stored.data(), norms_block.stored.size());

  const std::uint64_t index_offset = base + out->size();
  out->PutVarU64(records.size());
  for (const auto& r : records) {
    out->PutVarU64(static_cast<std::uint64_t>(r.variable));
    out->PutVarU64(static_cast<std::uint64_t>(r.t0));
    out->PutVarU64(static_cast<std::uint64_t>(r.valid_frames));
    out->PutU8(r.filter.WireFilter());
    out->PutU8(r.filter.WireBackend());
    out->PutVarU64(r.raw_size);
    out->PutVarU64(r.offset);
    out->PutVarU64(r.length);
  }
  out->PutU64(norms_offset);
  out->PutU64(index_offset);
  out->PutBytes(kIndexMagic, sizeof kIndexMagic);
}

// The read-all path behind Deserialize and ReadFile: every record header is
// cross-checked against the index, then every payload is read raw.
DatasetArchive ReadAll(const ArchiveReader& reader) {
  reader.CheckRecordArea();
  DatasetArchive archive(reader.codec(), reader.dataset_shape(),
                         reader.window(), reader.norms());
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const RecordRef& ref = reader.records()[i];
    archive.Add(ref.variable, ref.t0, ref.valid_frames, reader.ReadPayload(i));
  }
  return archive;
}

}  // namespace

void SerializeWindow(const CompressedWindow& window, ByteWriter* out) {
  out->PutVarU64(window.keyframes.y_stream.size());
  out->PutBytes(window.keyframes.y_stream.data(),
                window.keyframes.y_stream.size());
  out->PutVarU64(window.keyframes.z_stream.size());
  out->PutBytes(window.keyframes.z_stream.data(),
                window.keyframes.z_stream.size());
  PutShape(window.keyframes.y_shape, out);
  PutShape(window.keyframes.z_shape, out);
  PutShape(window.window_shape, out);
  out->PutU32(window.sample_seed);
  out->PutVarU64(window.corrections.size());
  for (const auto& c : window.corrections) {
    out->PutVarU64(c.size());
    out->PutBytes(c.data(), c.size());
  }
}

CompressedWindow DeserializeWindow(ByteReader* in) {
  CompressedWindow window;
  window.keyframes.y_stream.resize(GetCheckedLength(in, "y-stream"));
  in->GetBytes(window.keyframes.y_stream.data(),
               window.keyframes.y_stream.size());
  window.keyframes.z_stream.resize(GetCheckedLength(in, "z-stream"));
  in->GetBytes(window.keyframes.z_stream.data(),
               window.keyframes.z_stream.size());
  window.keyframes.y_shape = GetShape(in);
  window.keyframes.z_shape = GetShape(in);
  window.window_shape = GetShape(in);
  window.sample_seed = in->GetU32();
  // Every correction costs at least its own length varint, so the count can
  // never legitimately exceed the remaining byte count.
  const std::uint64_t corrections = in->GetVarU64();
  GLSC_CHECK_MSG(corrections <= in->remaining(),
                 "corrupt record: " << corrections << " corrections in "
                                    << in->remaining() << " remaining bytes");
  window.corrections.resize(corrections);
  for (auto& c : window.corrections) {
    c.resize(GetCheckedLength(in, "correction"));
    in->GetBytes(c.data(), c.size());
  }
  return window;
}

DatasetArchive::DatasetArchive(std::string codec, Shape dataset_shape,
                               std::int64_t window,
                               std::vector<data::FrameNorm> norms)
    : codec_(std::move(codec)),
      dataset_shape_(std::move(dataset_shape)),
      window_(window),
      norms_(std::move(norms)) {
  // Denormalization reads norm(v, t) V-major over [V, T]; a shorter vector
  // would be read past its end. V*T is formed only once it cannot wrap.
  const Shape& dims = dataset_shape_;
  const bool rank_ok = dims.size() == 4 && dims[0] >= 0 && dims[1] >= 0;
  const std::uint64_t vars = rank_ok ? static_cast<std::uint64_t>(dims[0]) : 0;
  const std::uint64_t frames =
      rank_ok ? static_cast<std::uint64_t>(dims[1]) : 0;
  if (!rank_ok ||
      (frames != 0 && vars > std::numeric_limits<std::uint64_t>::max() /
                                 frames) ||
      norms_.size() != vars * frames) {
    throw ArchiveError(ArchiveFault::kCorruptRecord,
                       "corrupt archive: " + std::to_string(norms_.size()) +
                           " frame norms for dataset shape " +
                           ShapeToString(dims));
  }
}

void DatasetArchive::Add(std::int64_t variable, std::int64_t t0,
                         std::int64_t valid_frames,
                         std::vector<std::uint8_t> payload) {
  GLSC_CHECK(variable >= 0 && t0 >= 0);
  GLSC_CHECK_MSG(valid_frames > 0 && valid_frames <= window_,
                 "valid_frames " << valid_frames << " outside (0, " << window_
                                 << "]");
  entries_.push_back({variable, t0, valid_frames, std::move(payload)});
}

const data::FrameNorm& DatasetArchive::norm(std::int64_t variable,
                                            std::int64_t t) const {
  const std::int64_t frames = dataset_shape_[1];
  GLSC_CHECK(variable >= 0 && variable < dataset_shape_[0] && t >= 0 &&
             t < frames);
  return norms_[static_cast<std::size_t>(variable * frames + t)];
}

std::vector<std::uint8_t> DatasetArchive::Serialize(
    const ArchiveWriteOptions& options) const {
  ByteWriter out;
  out.PutBytes(kArchiveMagic, sizeof kArchiveMagic);
  out.PutU8(kArchiveVersion);
  out.PutString(codec_);
  for (const auto d : dataset_shape_) {
    out.PutU64(static_cast<std::uint64_t>(d));
  }
  out.PutU64(static_cast<std::uint64_t>(window_));

  std::vector<RecordRef> records;
  records.reserve(entries_.size());
  for (const auto& entry : entries_) {
    records.push_back(PutRecord(&out, 0, entry, options.forced_filter, 0));
  }
  PutTail(&out, 0, records, norms_, options.forced_filter);
  return out.Release();
}

DatasetArchive DatasetArchive::Deserialize(std::vector<std::uint8_t> bytes) {
  return ReadAll(ArchiveReader::FromBytes(std::move(bytes)));
}

void DatasetArchive::WriteFile(const std::string& path) const {
  WriteFileBytes(path, Serialize());
}

DatasetArchive DatasetArchive::ReadFile(const std::string& path) {
  return ReadAll(ArchiveReader::FromFile(path, FileBacking::kPread));
}

void DatasetArchive::AppendToFile(const std::string& path,
                                  const DatasetArchive& more,
                                  const ArchiveWriteOptions& options) {
  if (!FileExists(path)) {
    WriteFileBytes(path, more.Serialize(options));
    return;
  }

  // Old index entries (offsets unchanged: old record bytes are reused
  // verbatim, never decoded or rewritten), the old norms merged V-major over
  // the combined time axis (exactly the order a one-shot serialization of
  // the combined record set would encode), and the splice points. The
  // reader is closed before the file is written.
  std::vector<RecordRef> records;
  std::vector<data::FrameNorm> norms;
  ArchiveLayout layout;
  std::uint64_t old_size = 0;
  std::int64_t base_t = 0;
  std::int64_t new_t = 0;
  {
    const ArchiveReader old =
        ArchiveReader::FromFile(path, FileBacking::kPread);
    GLSC_CHECK_MSG(old.codec() == more.codec_,
                   "append codec mismatch: archive holds "
                       << old.codec() << ", appending " << more.codec_);
    const Shape& dims = old.dataset_shape();
    GLSC_CHECK_MSG(dims[0] == more.dataset_shape_[0] &&
                       dims[2] == more.dataset_shape_[2] &&
                       dims[3] == more.dataset_shape_[3],
                   "append dataset shape mismatch");
    GLSC_CHECK_MSG(old.window() == more.window_, "append window mismatch");
    const std::int64_t vars = dims[0];
    const std::int64_t more_t = more.dataset_shape_[1];
    base_t = dims[1];
    records = old.records();
    records.reserve(records.size() + more.entries_.size());
    new_t = base_t + more_t;
    norms.resize(static_cast<std::size_t>(vars * new_t));
    for (std::int64_t v = 0; v < vars; ++v) {
      for (std::int64_t t = 0; t < base_t; ++t) {
        norms[static_cast<std::size_t>(v * new_t + t)] = old.norm(v, t);
      }
      for (std::int64_t t = 0; t < more_t; ++t) {
        norms[static_cast<std::size_t>(v * new_t + base_t + t)] =
            more.norms_[static_cast<std::size_t>(v * more_t + t)];
      }
    }
    layout = old.layout();
    old_size = old.archive_bytes();
  }
  const std::uint64_t norms_offset = layout.records_end;

  // New records land where the old norms block started.
  ByteWriter tail;
  for (const auto& entry : more.entries_) {
    records.push_back(
        PutRecord(&tail, norms_offset, entry, options.forced_filter, base_t));
  }

  PutTail(&tail, norms_offset, records, norms, options.forced_filter);

  // Splice: overwrite from the old norms offset, patch the header's u64 T in
  // place, and truncate if the rewritten tail came out shorter (possible when
  // the merged norms block compresses better than the old one).
  const std::uint64_t new_size = norms_offset + tail.size();
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    GLSC_CHECK_MSG(f.good(), "cannot open " << path << " for append");
    f.seekp(static_cast<std::streamoff>(norms_offset));
    f.write(reinterpret_cast<const char*>(tail.bytes().data()),
            static_cast<std::streamsize>(tail.size()));
    std::uint8_t t_le[8];
    for (int i = 0; i < 8; ++i) {
      t_le[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(new_t) >>
                                          (8 * i));
    }
    f.seekp(static_cast<std::streamoff>(layout.frames_field));
    f.write(reinterpret_cast<const char*>(t_le), sizeof t_le);
    f.flush();
    GLSC_CHECK_MSG(f.good(), "append write to " << path << " failed");
  }
  if (new_size < old_size) {
    std::error_code ec;
    std::filesystem::resize_file(path, new_size, ec);
    GLSC_CHECK_MSG(!ec, "cannot truncate " << path << " after append");
  }
}

Tensor DatasetArchive::DecompressAll(api::Compressor* codec) const {
  const ArchiveReader reader = ArchiveReader::FromArchive(*this);
  serve::ScheduleOptions options;  // one worker
  options.cache_windows = 0;
  serve::DecodeScheduler scheduler(&reader, codec, options);
  return scheduler.GetAll();
}

DatasetArchive CompressDataset(GlscCompressor* compressor,
                               const data::SequenceDataset& dataset,
                               double tau) {
  const auto codec = api::WrapGlsc(compressor);
  api::SessionOptions options;
  if (tau > 0.0) options.bound = {api::ErrorBoundMode::kPointwiseL2, tau};
  api::EncodeSession session(codec.get(), dataset.variables(),
                             dataset.height(), dataset.width(), options);
  session.Push(dataset.raw());
  return session.Finish();
}

}  // namespace glsc::core

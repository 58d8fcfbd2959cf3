// Archive reading: the one parser of the container format (container.h).
//
// Post-hoc analysis (the paper's visualization / region-of-interest
// workloads) reads small time slices of single variables far more often than
// whole datasets. `ArchiveReader` opens an archive from a file or a byte
// buffer and serves any record's payload without touching the others:
//
//   auto reader = core::ArchiveReader::FromFile("run.glsca");
//   for (std::size_t i : reader.RecordsFor(variable, t_begin, t_end)) {
//     codec->DecompressWindow(reader.ReadPayload(i));   // only these bytes
//   }
//
// For a v3/v4 archive the reader fetches the header from the front, the
// fixed footer from the back, and the index block the footer points at —
// payload bytes are read lazily, one record at a time. v4 records may be
// filtered (core/filters.h); ReadPayload inverts the declared chain
// transparently, so callers always receive the raw codec payload. v1/v2
// archives carry no index, so the reader scans the record area once to build
// one; random access still works, it just costs a full read up front.
//
// `DatasetArchive::Deserialize`/`ReadFile` are this reader plus a read-all
// loop that first runs CheckRecordArea (record headers vs index), and
// `AppendToFile` takes the old index, norms and layout() from it. Every
// parse failure is a typed ArchiveError.
//
// File-backed readers default to a read-only mmap of the archive (page-cache
// backed random access, no syscall per record) and fall back to positioned
// pread when mapping is unavailable; both are byte-identical and lock-free,
// so ReadPayload is safe to call from multiple threads concurrently — what
// serve::DecodeScheduler's worker fan-out relies on. The mmap backing assumes
// the file is not truncated while open (standard mmap caveat).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "util/status.h"

namespace glsc::tensor {
class Workspace;
}  // namespace glsc::tensor

namespace glsc::core {

// What exactly went wrong with the archive bytes. Serving layers mostly care
// about the StatusError code this maps to (kDataLoss = quarantine-worthy,
// kUnavailable = retryable IO), but tests and logs want the precise fault.
enum class ArchiveFault : std::uint8_t {
  kNotAnArchive = 0,   // bad magic / unsupported version
  kTruncated = 1,      // stream ends before a declared structure
  kCorruptIndex = 2,   // footer/index fails validation
  kCorruptRecord = 3,  // record metadata lies about the stream
  kIo = 4,             // backing read failed (possibly transient)
};

// Typed failure for hostile or damaged archives. Derives StatusError (and
// therefore std::runtime_error), so existing catch sites keep working while
// the shard manager can classify: every fault is kDataLoss except kIo, which
// maps to kUnavailable and is eligible for retry.
class ArchiveError : public StatusError {
 public:
  ArchiveError(ArchiveFault fault, const std::string& message)
      : StatusError(fault == ArchiveFault::kIo ? ErrorCode::kUnavailable
                                               : ErrorCode::kDataLoss,
                    message),
        fault_(fault) {}

  ArchiveFault fault() const { return fault_; }

 private:
  ArchiveFault fault_;
};

// One record's metadata plus the byte span of its STORED payload inside the
// archive. For v1-v3 records (and raw v4 records) stored == raw, filter is
// the identity and raw_size == length.
struct RecordRef {
  std::int64_t variable = 0;
  std::int64_t t0 = 0;
  std::int64_t valid_frames = 0;
  std::uint64_t offset = 0;    // absolute stored-payload offset (see backing)
  std::uint64_t length = 0;    // stored (on-disk) byte count
  FilterSpec filter;           // how the stored bytes were filtered (v4)
  std::uint64_t raw_size = 0;  // unfiltered payload byte count
};

// Where the parsed container's parts sit, in absolute byte offsets (all zero
// for FromArchive readers). For v3/v4 the record area is
// [records_begin, records_end): v3 starts it with the record count and ends
// it at the index, v4 ends it at the norms block — where AppendToFile splices.
struct ArchiveLayout {
  std::uint64_t frames_field = 0;  // the header's u64 T
  std::uint64_t records_begin = 0;
  std::uint64_t records_end = 0;
};

// How FromFile backs positioned reads.
enum class FileBacking : std::uint8_t {
  kAuto = 0,   // mmap, falling back to pread when mapping fails
  kMmap = 1,   // read-only mmap only; throws ArchiveError(kIo) if unavailable
  kPread = 2,  // positioned pread per record (no mapping)
};

class ArchiveReader {
 public:
  // Opens an archive file. v3/v4 archives are indexed without reading the
  // record area; v1/v2 archives are scanned once.
  static ArchiveReader FromFile(const std::string& path,
                                FileBacking backing = FileBacking::kAuto);
  // Same over an in-memory byte buffer (takes ownership of the copy).
  static ArchiveReader FromBytes(std::vector<std::uint8_t> bytes);
  // Wraps an already-deserialized archive without copying its payloads. The
  // archive must outlive the reader.
  static ArchiveReader FromArchive(const DatasetArchive& archive);

  // Move operations are defined out of line (with the destructor): Source is
  // incomplete here, and defaulting them in-class would force callers that
  // aggregate readers (vectors of shards) to instantiate its deleter.
  ArchiveReader(ArchiveReader&&) noexcept;
  ArchiveReader& operator=(ArchiveReader&&) noexcept;
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;
  ~ArchiveReader();

  const std::string& codec() const { return codec_; }
  const Shape& dataset_shape() const { return shape_; }
  std::int64_t window() const { return window_; }
  // Container version of the backing bytes (0 for FromArchive readers).
  int version() const { return version_; }
  const data::FrameNorm& norm(std::int64_t variable, std::int64_t t) const;
  // All V*T norms, V-major (empty for FromArchive readers).
  const std::vector<data::FrameNorm>& norms() const { return norms_; }
  const std::vector<RecordRef>& records() const { return records_; }
  const ArchiveLayout& layout() const { return layout_; }

  // Cross-checks the record area against the index: every v3/v4 record
  // header must mirror its index entry and the records must tile
  // [records_begin, records_end) contiguously in index order. Reads each
  // record header, so it is left to read-all callers; a lazy open reads only
  // header, footer and index. No-op for v1/v2 (their index IS the scan) and
  // FromArchive readers. Throws ArchiveError(kCorruptRecord).
  void CheckRecordArea() const;

  // Fetches one record's RAW payload, inverting any v4 filter chain.
  // File-backed readers read exactly that record's stored byte span;
  // thread-safe. Filter/LZ scratch comes from `ws` when non-null (the reader
  // opens its own Workspace::Scope), heap otherwise.
  std::vector<std::uint8_t> ReadPayload(std::size_t record,
                                        tensor::Workspace* ws = nullptr) const;
  // Same, reusing `out`'s capacity — with a warm Workspace this makes
  // steady-state filtered decode allocation-free.
  void ReadPayloadInto(std::size_t record, std::vector<std::uint8_t>* out,
                       tensor::Workspace* ws = nullptr) const;

  // Zero-copy alternative when the backing already holds the payload as its
  // own vector (FromArchive readers): returns a pointer into the archive, or
  // nullptr for file/bytes backings — fall back to ReadPayload then.
  const std::vector<std::uint8_t>* PayloadView(std::size_t record) const;

  // Indices (into records()) of `variable`'s records overlapping
  // [t_begin, t_end), sorted by t0.
  std::vector<std::size_t> RecordsFor(std::int64_t variable,
                                      std::int64_t t_begin,
                                      std::int64_t t_end) const;

  // STORED (on-disk, possibly compressed) payload bytes fetched through
  // ReadPayload so far — lets tests and benches verify that a window query
  // does not drag the whole archive through I/O, and that filtered archives
  // actually fetch fewer bytes than raw ones.
  std::uint64_t payload_bytes_fetched() const;
  // RAW payload bytes handed to callers after unfiltering. Equal to
  // payload_bytes_fetched() for unfiltered archives.
  std::uint64_t decoded_payload_bytes() const;
  // Total size of the backing stream (0 for FromArchive readers).
  std::uint64_t archive_bytes() const;

  class Source;  // internal byte source (file or memory)

 private:
  ArchiveReader();
  void ParseSource();
  // v4: footer -> filtered norms block -> index (record area never read).
  void ParseV4Tail(std::uint64_t header_end, std::uint64_t norm_count);
  void BuildVariableIndex();

  std::string codec_ = "glsc";
  Shape shape_;
  int version_ = 0;
  std::int64_t window_ = 0;
  std::vector<data::FrameNorm> norms_;
  std::vector<RecordRef> records_;
  ArchiveLayout layout_;
  // Per-variable record indices sorted by t0, for range queries.
  std::vector<std::vector<std::size_t>> by_variable_;

  std::unique_ptr<Source> source_;           // file/bytes backing
  const DatasetArchive* archive_ = nullptr;  // borrowed backing
  std::unique_ptr<std::atomic<std::uint64_t>> fetched_;
  std::unique_ptr<std::atomic<std::uint64_t>> decoded_;
};

}  // namespace glsc::core

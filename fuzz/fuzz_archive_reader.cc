// Fuzz target: the archive parser over arbitrary bytes, through both of its
// entry points — ArchiveReader::FromBytes + full record fetch, then
// DatasetArchive::Deserialize (the same reader plus the read-all loop and its
// record-header cross-check).
//
// Exercises the v3/v4 footer/index paths, the v1/v2 scan-built index path,
// ReadPayload's offset/length arithmetic and filter inversion. The contract
// under fire: any input either opens (and then every indexed record is
// fetchable) or raises ArchiveError / std::exception — never a crash, hang,
// wild read or OOM-sized allocation. Deserialize accepting bytes the reader
// rejected, or disagreeing with it on the record count, aborts: both paths
// are one parser.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <vector>

#include "core/archive_reader.h"
#include "fuzz_entry_points.h"

namespace glsc::fuzz {

int FuzzArchiveReader(const std::uint8_t* data, std::size_t size) {
  bool reader_ok = false;
  std::size_t reader_records = 0;
  try {
    const auto reader = glsc::core::ArchiveReader::FromBytes(
        std::vector<std::uint8_t>(data, data + size));
    // Fetch every record the index claims to exist (bounded: a hostile index
    // cannot inflate the record count past what validation admitted, but cap
    // the walk anyway so the harness stays fast on large accepted inputs).
    reader_records = reader.records().size();
    const std::size_t n = std::min<std::size_t>(reader_records, 256);
    for (std::size_t i = 0; i < n; ++i) {
      const auto payload = reader.ReadPayload(i);
      (void)payload;
    }
    // Range queries walk the per-variable index.
    const auto& shape = reader.dataset_shape();
    if (shape.size() == 4 && shape[0] > 0 && shape[1] > 0) {
      (void)reader.RecordsFor(0, 0, shape[1]);
      (void)reader.norm(0, 0);
    }
    reader_ok = true;
  } catch (const std::exception&) {
    // Hostile input rejected with a typed error — the expected path.
  }

  try {
    const auto archive = glsc::core::DatasetArchive::Deserialize(
        std::vector<std::uint8_t>(data, data + size));
    if (!archive.entries().empty() && archive.dataset_shape()[0] > 0 &&
        archive.dataset_shape()[1] > 0) {
      // norm() indexes the V*T table; a parse that accepted inconsistent
      // shape/norm counts would fault here rather than in a caller.
      (void)archive.norm(0, 0);
    }
    if (!reader_ok || archive.entries().size() != reader_records) {
      std::abort();
    }
  } catch (const std::exception&) {
  }
  return 0;
}

}  // namespace glsc::fuzz

#ifndef GLSC_FUZZ_REGRESSION_TU
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return glsc::fuzz::FuzzArchiveReader(data, size);
}
#endif

// Byte surgery on serialized archives for hostile-input tests: rewrites the
// index block of a container (core/container.h) so that it lies about one
// record, while the header, the record area and the norms block stay
// verbatim. The index is located through the fixed footer, exactly as
// core::ArchiveReader finds it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/archive_reader.h"
#include "core/container.h"
#include "util/bytes.h"

namespace glsc::testing {

// `bytes` with its index replaced by one listing `records` (in the writer's
// entry encoding) and the footer re-pointed at it.
inline std::vector<std::uint8_t> WithIndex(
    std::vector<std::uint8_t> bytes,
    const std::vector<core::RecordRef>& records) {
  ByteReader footer(bytes.data() + bytes.size() - core::kFooterBytes,
                    core::kFooterBytes);
  const std::uint64_t norms_offset = footer.GetU64();
  const std::uint64_t index_offset = footer.GetU64();
  bytes.resize(static_cast<std::size_t>(index_offset));
  ByteWriter index;
  index.PutVarU64(records.size());
  for (const core::RecordRef& r : records) {
    index.PutVarU64(static_cast<std::uint64_t>(r.variable));
    index.PutVarU64(static_cast<std::uint64_t>(r.t0));
    index.PutVarU64(static_cast<std::uint64_t>(r.valid_frames));
    index.PutU8(r.filter.WireFilter());
    index.PutU8(r.filter.WireBackend());
    index.PutVarU64(r.raw_size);
    index.PutVarU64(r.offset);
    index.PutVarU64(r.length);
  }
  index.PutU64(norms_offset);
  index.PutU64(index_offset);
  index.PutBytes(core::kIndexMagic, sizeof core::kIndexMagic);
  bytes.insert(bytes.end(), index.bytes().begin(), index.bytes().end());
  return bytes;
}

}  // namespace glsc::testing

// Independent reference for whole-archive decode: every record through the
// codec's plain per-window DecompressWindow, denormalized with the frame
// norms read straight off the DatasetArchive — no reader, no scheduler, no
// batching, no workspace. DatasetArchive::DecompressAll and
// DecodeScheduler::Get/GetAll all run the scheduler, so comparing them with
// each other proves nothing; comparing each with this reference does.
#pragma once

#include "api/compressor.h"
#include "core/container.h"

namespace glsc::testing {

// The archive as [V, T, H, W] physical-unit frames; frames no record covers
// stay zero.
inline Tensor SerialDecode(api::Compressor* codec,
                           const core::DatasetArchive& archive) {
  const Shape& shape = archive.dataset_shape();
  const std::int64_t frames = shape[1];
  const std::int64_t hw = shape[2] * shape[3];
  Tensor out(shape);
  for (const core::ArchiveEntry& entry : archive.entries()) {
    const Tensor recon = codec->DecompressWindow(entry.payload);
    for (std::int64_t f = 0; f < entry.valid_frames; ++f) {
      const data::FrameNorm& fn = archive.norm(entry.variable, entry.t0 + f);
      const float* src = recon.data() + f * hw;
      float* dst = out.data() + (entry.variable * frames + entry.t0 + f) * hw;
      for (std::int64_t k = 0; k < hw; ++k) {
        dst[k] = src[k] * fn.range + fn.mean;
      }
    }
  }
  return out;
}

}  // namespace glsc::testing

// Layered replays: the traced run times each module's public entry points on
// the workload's real records and shapes, from outside the library.
//
//  - GLSC decode: the stages of GlscCompressor::DecompressBatch (entropy +
//    hyperprior decode, batched DDIM sampler, batched VAE decode, PCA apply)
//    re-driven one by one on the archive's records, next to the same batches
//    through the codec's own DecompressWindows. The replayed windows must
//    equal the codec's bytes, so the stage times provably describe the call.
//  - GLSC encode: likewise for GlscCompressor::Compress (VAE encode + entropy
//    encode, the decoder-identical simulation, PCA correction).
//  - Archive reader / filters: ReadPayloadInto, DecodeFiltered and
//    EncodeWithSelection per record of a written v4 archive.
//  - Kernels: GemmEx and Im2ColLd over the UNet's own convolution shapes,
//    the 256^3 GEMM roof in the same process, and the attention forward at
//    the UNet's attention shapes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/adapters.h"
#include "core/archive_reader.h"
#include "report.h"

namespace perfbench {

struct GlscDecodeReplay {
  double entropy_ms_per_window = 0.0;
  double sampler_ms_per_window = 0.0;
  double vae_decode_ms_per_window = 0.0;
  double pca_apply_ms_per_window = 0.0;
  double unaccounted_share = 0.0;  // DecompressWindows time the stages miss
  std::int64_t steady_slab_allocations = 0;
  double workspace_peak_mb = 0.0;
  bool identical = true;  // replayed windows == codec windows, bytewise
};

// Replays `payloads` (raw "glsc" records) in batches of `batch`.
GlscDecodeReplay ReplayGlscDecode(glsc::api::GlscAdapter* codec,
                                  const std::vector<std::vector<std::uint8_t>>&
                                      payloads,
                                  std::int64_t batch);

struct GlscEncodeReplay {
  double vae_encode_ms_per_window = 0.0;  // VaeHyperprior::Compress (keys)
  double entropy_ms_per_window = 0.0;     // DecompressLatents
  double sampler_ms_per_window = 0.0;     // SampleConditional, one window
  double vae_decode_ms_per_window = 0.0;  // DecodeLatent
  double pca_correct_ms_per_window = 0.0;
  double unaccounted_share = 0.0;  // CompressWindow time the stages miss
  std::int64_t steady_slab_allocations = 0;
  double workspace_peak_mb = 0.0;
  bool identical = true;  // replayed payloads == CompressWindow payloads
};

// Replays the compression of normalized windows [N, H, W] at pointwise-L2
// bound `tau`.
GlscEncodeReplay ReplayGlscEncode(glsc::api::GlscAdapter* codec,
                                  const std::vector<glsc::Tensor>& windows,
                                  double tau);

struct ReaderReplay {
  double read_ms_per_record = 0.0;      // ReadPayloadInto
  double filter_decode_gb_per_s = 0.0;  // DecodeFiltered, raw bytes out
  double select_ms_per_record = 0.0;    // EncodeWithSelection
  double stored_over_raw = 0.0;
  std::int64_t steady_slab_allocations = 0;
  double workspace_peak_mb = 0.0;
  bool identical = true;  // DecodeFiltered output == ReadPayloadInto output
};

// Replays every record of the v4 archive file at `path` (opened as `reader`)
// `passes` times; the first pass warms the workspace and is not timed.
ReaderReplay ReplayReader(const glsc::core::ArchiveReader& reader,
                          const std::string& path, int passes);

// Sets the archive-reader and filter metrics from a replay; a replay that
// disagrees with the reader fails the run.
void ReportReaderReplay(const ReaderReplay& replay, Report* report);

// Milliseconds per UNet forward (one DDIM step) over `windows` stacked
// windows: the batched forward when `batched`, the single-window one
// otherwise (windows must then be 1).
double TimeUnetStep(glsc::core::GlscCompressor& g, std::int64_t latent_hw,
                    std::int64_t windows, bool batched);

struct KernelReplay {
  double gemm_gflops = 0.0;       // UNet convolution GEMMs
  double gemm_roof_gflops = 0.0;  // square 256^3 GemmEx
  double im2col_gb_per_s = 0.0;   // computed bytes (input read + columns)
  double attention_ms_per_call = 0.0;
};

// Kernel timings at the UNet shapes of one sampler step over `windows`
// stacked windows of the model's geometry: merged-frame GEMMs when
// `batched` (the DecompressBatch path), per-frame GEMMs otherwise (the
// single-window path encode uses).
KernelReplay ReplayKernels(const glsc::core::GlscConfig& config,
                           std::int64_t latent_hw, std::int64_t windows,
                           bool batched);

}  // namespace perfbench

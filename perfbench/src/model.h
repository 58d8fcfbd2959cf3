// The pinned GLSC model every GLSC workload loads.
//
// perfbench/model/e2e_glsc.glsc holds the weights of bench_e2e_decode's model
// (VAE + UNet + PCA basis trained for 200 + 200 iterations on the seed-2026
// 48x32x32 climate field); bench_e2e_decode regenerates it bit for bit (see
// perfbench/README.md). Runs never train. LoadPinnedGlsc refuses weights
// whose size or content hash differ from the pinned ones, before anything is
// timed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "api/compressor.h"

namespace perfbench {

inline constexpr std::size_t kPinnedModelBytes = 236567;
inline constexpr std::uint64_t kPinnedModelFnv1a = 0xa63f90ace0081c72ull;

// The ROADMAP baseline GLSC configuration: window 16, 6 DDIM steps, default
// (laptop-scale) geometry.
glsc::api::CodecOptions GlscOptions();

// Loads and verifies the pinned weights; throws std::runtime_error when the
// file is missing or is not the pinned artifact.
std::unique_ptr<glsc::api::Compressor> LoadPinnedGlsc(const std::string& path);

}  // namespace perfbench

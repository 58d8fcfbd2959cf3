// Byte-identity of the one inference path (the batched workspace forward)
// against the independent allocating reference — the training-path
// Forward(x, /*training=*/false) and the ws-less sampler — at every layer:
//
//   Conv2d::Forward(x, ws)        — frame-merged im2col GEMM vs per-frame
//   MultiHeadSelfAttention        — pooled-scratch forward vs allocating
//   SpaceTimeUNet::Forward(B)     — one pass over B stacked windows vs the
//                                   allocating forward per window
//   SampleConditionalBatch        — batched DDIM ladder vs per-window
//                                   allocating sampling
//   VaeHyperprior::DecodeLatent   — merged decoder convolutions
//   GlscCompressor                — Compress's simulation, Decompress and
//                                   DecompressBatch (B ∈ {1, 2, 5}) vs a
//                                   decode assembled from allocating pieces
//
// "Identical" here always means bitwise: batching is a dispatch choice, never
// a quality choice. Untrained weights are fine — the pipeline is
// deterministic, so equality is meaningful without a training run.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "compress/vae.h"
#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "data/field_generators.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/sampler.h"
#include "diffusion/spacetime_unet.h"
#include "glsc_reference.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace glsc {
namespace {

using tensor::Workspace;

void ExpectBytesEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << "tensors differ bitwise";
}

TEST(BatchedConv, MergedForwardMatchesAllocating) {
  Rng rng(21);
  // Odd geometry on purpose: stride 2 with padding.
  for (const std::int64_t stride : {1, 2}) {
    nn::Conv2d conv(3, 5, 3, stride, 1, rng);
    for (const std::int64_t frames : {1, 2, 7}) {
      Tensor x = Tensor::Randn({frames, 3, 12, 12}, rng);
      Workspace ws;
      ExpectBytesEqual(conv.Forward(x, /*training=*/false),
                       conv.Forward(x, &ws));
    }
  }
  // Chunk boundaries: a 72 x 4900 column matrix per frame merges two frames
  // per GEMM (7 frames -> chunks 2, 2, 2, 1); at 72 x 16384 one frame fills
  // the merge budget, so every chunk is a single frame.
  nn::Conv2d wide(8, 4, 3, 1, 1, rng);
  for (const std::int64_t edge : {70, 128}) {
    Tensor x = Tensor::Randn({edge == 70 ? 7 : 2, 8, edge, edge}, rng);
    Workspace ws;
    ExpectBytesEqual(wide.Forward(x, /*training=*/false), wide.Forward(x, &ws));
  }
}

TEST(BatchedAttention, PooledForwardMatchesAllocating) {
  Rng rng(23);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  for (const std::int64_t batch : {1, 3, 6}) {
    Tensor x = Tensor::Randn({batch, 5, 8}, rng);
    Workspace ws;
    const Tensor ref = attn.Forward(x, /*training=*/false);
    ExpectBytesEqual(ref, attn.Forward(x, &ws));
    ExpectBytesEqual(ref, attn.ForwardBatched(x, &ws));
  }
}

TEST(BatchedUNet, StackedWindowsMatchSerialPerWindow) {
  diffusion::UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  config.seed = 5;
  diffusion::SpaceTimeUNet unet(config);

  const std::int64_t n = 6, c = 4, h = 8, w = 8;
  Rng rng(31);
  for (const std::int64_t batch : {1, 2, 5}) {
    Tensor stacked = Tensor::Randn({batch * n, c, h, w}, rng);
    Workspace ws;
    const Tensor out = unet.Forward(stacked, /*t=*/17, &ws, batch);
    ASSERT_EQ(out.shape(), stacked.shape());
    for (std::int64_t b = 0; b < batch; ++b) {
      // Reference: the allocating forward on this window alone.
      Tensor window = Tensor::Empty({n, c, h, w});
      std::memcpy(window.data(), stacked.data() + b * n * c * h * w,
                  static_cast<std::size_t>(n * c * h * w) * sizeof(float));
      const Tensor ref = unet.Forward(window, /*t=*/17);
      ASSERT_EQ(0, std::memcmp(ref.data(), out.data() + b * n * c * h * w,
                               static_cast<std::size_t>(n * c * h * w) *
                                   sizeof(float)))
          << "batch " << batch << ", window " << b;
    }
  }
}

TEST(BatchedSampler, MatchesSerialPerWindow) {
  diffusion::UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  config.seed = 7;
  diffusion::SpaceTimeUNet unet(config);
  diffusion::NoiseSchedule schedule(diffusion::ScheduleKind::kLinear, 50);
  diffusion::SamplerConfig sampler;
  sampler.steps = 4;

  const std::vector<std::int64_t> key_idx{0, 3, 6, 7};
  const std::int64_t frames = 8;
  const std::int64_t k = static_cast<std::int64_t>(key_idx.size());
  const std::int64_t g = frames - k;
  const std::int64_t c = 4, h = 6, w = 6;

  Rng data_rng(41);
  for (const std::int64_t batch : {1, 2, 5}) {
    Tensor keys = Tensor::Randn({batch * k, c, h, w}, data_rng);
    std::vector<Rng> rng_storage;
    rng_storage.reserve(static_cast<std::size_t>(batch));
    std::vector<Rng*> rngs;
    for (std::int64_t b = 0; b < batch; ++b) {
      rng_storage.emplace_back(100 + static_cast<std::uint64_t>(b));
    }
    for (auto& r : rng_storage) rngs.push_back(&r);

    Workspace ws;
    const Tensor out = diffusion::SampleConditionalBatch(
        &unet, schedule, sampler, keys, key_idx, frames, rngs, &ws);
    ASSERT_EQ(out.shape(), (Shape{batch * g, c, h, w}));

    for (std::int64_t b = 0; b < batch; ++b) {
      Tensor window_keys = Tensor::Empty({k, c, h, w});
      std::memcpy(window_keys.data(), keys.data() + b * k * c * h * w,
                  static_cast<std::size_t>(k * c * h * w) * sizeof(float));
      Rng serial_rng(100 + static_cast<std::uint64_t>(b));
      const Tensor ref = diffusion::SampleConditional(
          &unet, schedule, sampler, window_keys, key_idx, frames, serial_rng);
      ASSERT_EQ(0, std::memcmp(ref.data(), out.data() + b * g * c * h * w,
                               static_cast<std::size_t>(g * c * h * w) *
                                   sizeof(float)))
          << "batch " << batch << ", window " << b;
    }
  }
}

TEST(BatchedVae, DecodeLatentMatchesAllocating) {
  compress::VaeConfig config;
  config.latent_channels = 4;
  config.hidden_channels = 6;
  config.hyper_channels = 2;
  config.seed = 3;
  compress::VaeHyperprior vae(config);

  Rng rng(51);
  for (const std::int64_t frames : {1, 4, 10}) {
    Tensor y = Tensor::Randn({frames, 4, 4, 4}, rng);
    Workspace ws;
    const Tensor ref = vae.DecodeLatent(y);
    ExpectBytesEqual(ref, vae.DecodeLatent(y, &ws));
    ExpectBytesEqual(ref, vae.DecodeLatentBatched(y, &ws));
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: every GLSC reconstruction vs the reference decode assembled
// from the allocating pieces (glsc_reference.h).
// ---------------------------------------------------------------------------

TEST(BatchedGlsc, EveryReconstructionMatchesAllocatingReference) {
  core::GlscCompressor glsc(testing::SmallGlscConfig());

  data::FieldSpec spec;
  spec.frames = 40;  // five 8-frame windows
  spec.height = 16;
  spec.width = 16;
  spec.seed = 99;
  const Tensor field = data::GenerateClimate(spec);  // [1, 40, 16, 16]

  // tau > 0 requires a fitted correction basis; 2 windows is plenty for an
  // identity test (the basis just has to exist and be used on both paths).
  data::SequenceDataset dataset(field.Clone());
  core::FitPcaFromResiduals(&glsc, dataset, /*fit_windows=*/2, /*crop=*/16);

  std::vector<core::CompressedWindow> compressed;
  std::vector<Tensor> refs;
  for (std::int64_t w = 0; w < 5; ++w) {
    Tensor window = Tensor::Empty({8, 16, 16});
    std::memcpy(window.data(), field.data() + w * 8 * 16 * 16,
                static_cast<std::size_t>(8 * 16 * 16) * sizeof(float));
    // tau > 0 so the windows carry PCA corrections — every path must apply
    // them per window exactly like the reference.
    Tensor recon_out;
    compressed.push_back(glsc.Compress(window, /*tau=*/0.5, 0, &recon_out));
    ASSERT_FALSE(compressed.back().corrections.empty());
    refs.push_back(testing::ReferenceDecode(&glsc, compressed.back()));
    // The encoder's simulation is the decoder's reconstruction.
    ExpectBytesEqual(refs.back(), recon_out);
    ExpectBytesEqual(refs.back(), glsc.Decompress(compressed.back()));
  }

  for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                  std::size_t{5}}) {
    std::vector<const core::CompressedWindow*> views;
    for (std::size_t i = 0; i < batch; ++i) views.push_back(&compressed[i]);
    Workspace ws;
    const std::vector<Tensor> got = glsc.DecompressBatch(views, 0, &ws);
    ASSERT_EQ(got.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_FALSE(got[i].borrowed());  // arena memory must not escape
      ExpectBytesEqual(refs[i], got[i]);
    }
    // Null workspace (local arena) must give the same bytes.
    const std::vector<Tensor> local = glsc.DecompressBatch(views);
    ASSERT_EQ(local.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      ExpectBytesEqual(refs[i], local[i]);
    }
  }

  // A record whose correction count is neither 0 nor its frame count is
  // rejected, not read past the end of its correction list.
  core::CompressedWindow bad = compressed[0];
  bad.corrections.resize(3);
  EXPECT_THROW(glsc.Decompress(bad), std::runtime_error);
}

}  // namespace
}  // namespace glsc

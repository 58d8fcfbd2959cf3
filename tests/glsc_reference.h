// Independent reference for the GLSC decode: the decoder written out step by
// step from the allocating pieces, with no workspace anywhere. Compress's
// simulation, Decompress and DecompressBatch all run one batched workspace
// body, so comparing them with each other proves nothing; comparing each
// with this reference does.
#pragma once

#include <cstring>

#include "core/glsc_compressor.h"
#include "diffusion/conditioner.h"
#include "diffusion/sampler.h"
#include "tensor/ops.h"

namespace glsc::testing {

// Tiny untrained GLSC model: the pipeline is deterministic, so byte equality
// is meaningful without a training run.
inline core::GlscConfig SmallGlscConfig() {
  core::GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 6;
  config.vae.hyper_channels = 2;
  config.vae.seed = 3;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.unet.seed = 5;
  config.schedule_steps = 40;
  config.window = 8;
  config.interval = 3;
  config.sample_steps = 3;
  return config;
}

// Entropy decode, min-max normalization, the ws-less (allocating) sampler,
// rounding, keyframe composition, the allocating VAE decode and the PCA
// corrections. Returns the owned [N, H, W] reconstruction.
inline Tensor ReferenceDecode(core::GlscCompressor* glsc,
                              const core::CompressedWindow& cw) {
  const Tensor y_keys = glsc->vae().DecompressLatents(cw.keyframes);
  const diffusion::LatentNorm norm = diffusion::LatentNorm::FromTensor(y_keys);
  Rng rng(cw.sample_seed);
  diffusion::SamplerConfig sampler;
  sampler.steps = glsc->config().sample_steps;
  const Tensor gen_normed = diffusion::SampleConditional(
      &glsc->unet(), glsc->schedule(), sampler, norm.Normalize(y_keys),
      glsc->keyframe_indices(), glsc->config().window, rng);
  const Tensor full_latents = diffusion::Compose(
      Round(norm.Denormalize(gen_normed)), y_keys, glsc->generated_indices(),
      glsc->keyframe_indices());
  const Shape& s = cw.window_shape;
  Tensor recon = glsc->vae().DecodeLatent(full_latents).Reshape(s);
  const std::int64_t hw = s[1] * s[2];
  const std::size_t frame_bytes = static_cast<std::size_t>(hw) * sizeof(float);
  for (std::size_t f = 0; f < cw.corrections.size(); ++f) {
    if (cw.corrections[f].empty()) continue;
    Tensor frame = Tensor::Empty({s[1], s[2]});
    float* rec = recon.data() + static_cast<std::int64_t>(f) * hw;
    std::memcpy(frame.data(), rec, frame_bytes);
    glsc->pca().Apply(cw.corrections[f], &frame);
    std::memcpy(rec, frame.data(), frame_bytes);
  }
  return recon;
}

}  // namespace glsc::testing

#include "replay.h"

#include <algorithm>
#include <cstring>

#include "core/container.h"
#include "core/filters.h"
#include "diffusion/conditioner.h"
#include "diffusion/sampler.h"
#include "nn/attention.h"
#include "report.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using glsc::Tensor;
namespace core = glsc::core;
namespace diffusion = glsc::diffusion;
namespace tensor = glsc::tensor;

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

constexpr double kMb = 1024.0 * 1024.0;

// Applies a window's per-frame PCA corrections in place, exactly as
// GlscCompressor does after its VAE decode.
void ApplyCorrections(core::GlscCompressor& g,
                      const core::CompressedWindow& cw, Tensor* recon) {
  if (cw.corrections.empty()) return;
  const glsc::Shape& s = cw.window_shape;
  const std::int64_t hw = s[1] * s[2];
  for (std::int64_t f = 0; f < s[0]; ++f) {
    const auto& payload = cw.corrections[static_cast<std::size_t>(f)];
    if (payload.empty()) continue;
    Tensor frame({s[1], s[2]});
    std::copy_n(recon->data() + f * hw, hw, frame.data());
    g.pca().Apply(payload, &frame);
    std::copy_n(frame.data(), hw, recon->data() + f * hw);
  }
}

}  // namespace

GlscDecodeReplay ReplayGlscDecode(
    glsc::api::GlscAdapter* codec,
    const std::vector<std::vector<std::uint8_t>>& payloads,
    std::int64_t batch) {
  GLSC_CHECK(!payloads.empty());
  core::GlscCompressor& g = codec->compressor();
  const std::int64_t steps = g.config().sample_steps;
  tensor::Workspace ws;
  tensor::Workspace codec_ws;
  GlscDecodeReplay out;
  double t_entropy = 0.0, t_sampler = 0.0, t_vae = 0.0, t_pca = 0.0;
  double t_codec = 0.0;
  std::int64_t timed_windows = 0;
  std::int64_t slabs_warm = 0;
  const std::size_t n = payloads.size();
  const std::size_t step = static_cast<std::size_t>(std::max<std::int64_t>(
      batch, 1));

  // Batch 0 runs first to warm both workspaces (untimed); then every batch
  // is timed twice.
  std::vector<std::size_t> starts = {0};
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t b0 = 0; b0 < n; b0 += step) starts.push_back(b0);
  }
  for (std::size_t run = 0; run < starts.size(); ++run) {
    const bool timed = run > 0;
    const std::size_t b0 = starts[run];
    const std::size_t bn = std::min(step, n - b0);
    std::vector<const std::vector<std::uint8_t>*> ptrs;
    std::vector<core::CompressedWindow> windows;
    for (std::size_t i = b0; i < b0 + bn; ++i) {
      ptrs.push_back(&payloads[i]);
      glsc::ByteReader in(payloads[i]);
      windows.push_back(core::DeserializeWindow(&in));
    }

    double t = Now();
    const std::vector<Tensor> reference = codec->DecompressWindows(ptrs, &codec_ws);
    const double d_codec = Now() - t;

    // Stage replay, mirroring GlscCompressor::DecompressBatch.
    const std::int64_t b = static_cast<std::int64_t>(bn);
    t = Now();
    std::vector<Tensor> y_keys;
    std::vector<diffusion::LatentNorm> norms;
    for (const core::CompressedWindow& cw : windows) {
      y_keys.push_back(g.vae().DecompressLatents(cw.keyframes, &ws));
      norms.push_back(diffusion::LatentNorm::FromTensor(y_keys.back()));
    }
    const double d_entropy = Now() - t;
    double d_sampler = 0.0, d_vae = 0.0;
    std::vector<Tensor> recons;
    {
      tensor::Workspace::Scope scope(&ws);
      t = Now();
      const std::int64_t key_elems = y_keys[0].numel();
      glsc::Shape stacked_shape = y_keys[0].shape();
      stacked_shape[0] *= b;
      Tensor keys_stacked = ws.NewTensor(stacked_shape);
      Tensor keys_normed = ws.NewTensor(stacked_shape);
      // Per-window normalization through the public LatentNorm, stacked
      // into the batch layout the sampler takes.
      for (std::int64_t w = 0; w < b; ++w) {
        const Tensor& yk = y_keys[static_cast<std::size_t>(w)];
        std::copy_n(yk.data(), key_elems, keys_stacked.data() + w * key_elems);
        const Tensor normed =
            norms[static_cast<std::size_t>(w)].Normalize(yk, &ws);
        std::copy_n(normed.data(), key_elems,
                    keys_normed.data() + w * key_elems);
      }
      std::vector<glsc::Rng> rng_storage;
      rng_storage.reserve(bn);
      for (const core::CompressedWindow& cw : windows) {
        rng_storage.emplace_back(cw.sample_seed);
      }
      std::vector<glsc::Rng*> rngs;
      for (glsc::Rng& r : rng_storage) rngs.push_back(&r);
      diffusion::SamplerConfig sampler_cfg;
      sampler_cfg.steps = steps;
      const Tensor gen_normed = diffusion::SampleConditionalBatch(
          &g.unet(), g.schedule(), sampler_cfg, keys_normed,
          g.keyframe_indices(), g.config().window, rngs, &ws);
      Tensor gen_latents = ws.NewTensor(gen_normed.shape());
      const std::int64_t gen_frames = gen_normed.dim(0) / b;
      const std::int64_t gen_elems = gen_normed.numel() / b;
      for (std::int64_t w = 0; w < b; ++w) {
        const Tensor denormed = norms[static_cast<std::size_t>(w)].Denormalize(
            gen_normed.Slice0(w * gen_frames, (w + 1) * gen_frames), &ws);
        std::copy_n(denormed.data(), gen_elems,
                    gen_latents.data() + w * gen_elems);
      }
      glsc::RoundInPlace(&gen_latents);
      const Tensor full_latents = diffusion::ComposeBatch(
          gen_latents, keys_stacked, g.generated_indices(),
          g.keyframe_indices(), b, &ws);
      d_sampler = Now() - t;

      t = Now();
      const Tensor decoded = g.vae().DecodeLatentBatched(full_latents, &ws);
      const glsc::Shape& s = windows[0].window_shape;
      for (std::int64_t w = 0; w < b; ++w) {
        recons.push_back(decoded.Slice0(w * s[0], (w + 1) * s[0])
                             .Reshape({s[0], s[1], s[2]})
                             .Clone());
      }
      d_vae = Now() - t;
    }
    t = Now();
    for (std::size_t w = 0; w < bn; ++w) {
      ApplyCorrections(g, windows[w], &recons[w]);
    }
    const double d_pca = Now() - t;

    for (std::size_t w = 0; w < bn; ++w) {
      if (!SameBytes(recons[w], reference[w])) out.identical = false;
    }
    if (!timed) {
      slabs_warm = ws.stats().slab_allocations;
      continue;
    }
    t_codec += d_codec;
    t_entropy += d_entropy;
    t_sampler += d_sampler;
    t_vae += d_vae;
    t_pca += d_pca;
    timed_windows += b;
  }

  const double per_window = 1e3 / static_cast<double>(timed_windows);
  out.entropy_ms_per_window = t_entropy * per_window;
  out.sampler_ms_per_window = t_sampler * per_window;
  out.vae_decode_ms_per_window = t_vae * per_window;
  out.pca_apply_ms_per_window = t_pca * per_window;
  out.unaccounted_share =
      1.0 - Share(t_entropy + t_sampler + t_vae + t_pca, t_codec);
  out.steady_slab_allocations = ws.stats().slab_allocations - slabs_warm;
  out.workspace_peak_mb = static_cast<double>(ws.stats().peak_bytes) / kMb;

  return out;
}

GlscEncodeReplay ReplayGlscEncode(glsc::api::GlscAdapter* codec,
                                  const std::vector<Tensor>& windows,
                                  double tau) {
  core::GlscCompressor& g = codec->compressor();
  const std::int64_t steps = g.config().sample_steps;
  tensor::Workspace ws;
  tensor::Workspace codec_ws;
  GlscEncodeReplay out;
  double t_enc = 0.0, t_entropy = 0.0, t_sampler = 0.0, t_vae = 0.0,
         t_pca = 0.0, t_codec = 0.0;
  std::int64_t timed_windows = 0;
  std::int64_t slabs_warm = 0;
  const glsc::api::ErrorBound bound{glsc::api::ErrorBoundMode::kPointwiseL2,
                                    tau};

  // Window 0 runs twice: the first time warms both workspaces (untimed).
  std::vector<std::size_t> order = {0};
  for (std::size_t i = 0; i < windows.size(); ++i) order.push_back(i);
  for (std::size_t run = 0; run < order.size(); ++run) {
    const Tensor& window = windows[order[run]];
    const std::vector<glsc::data::FrameNorm> norms(
        static_cast<std::size_t>(window.dim(0)));
    double t = Now();
    const std::vector<std::uint8_t> reference =
        codec->CompressWindow(window, bound, norms, &codec_ws);
    const double d_codec = Now() - t;

    // Stage replay, mirroring GlscCompressor::Compress. The sampling seed is
    // the codec's choice; it is read back from the codec's own record.
    core::CompressedWindow cw;
    cw.window_shape = window.shape();
    {
      glsc::ByteReader in(reference);
      cw.sample_seed = core::DeserializeWindow(&in).sample_seed;
    }
    t = Now();
    const Tensor keys = diffusion::GatherFrames(window, g.keyframe_indices());
    cw.keyframes = g.vae().Compress(
        keys.Reshape({keys.dim(0), 1, keys.dim(1), keys.dim(2)}));
    const double d_enc = Now() - t;
    t = Now();
    const Tensor y_keys = g.vae().DecompressLatents(cw.keyframes, &ws);
    const double d_entropy = Now() - t;
    double d_sampler = 0.0, d_vae = 0.0;
    Tensor recon;
    {
      tensor::Workspace::Scope scope(&ws);
      t = Now();
      const diffusion::LatentNorm norm =
          diffusion::LatentNorm::FromTensor(y_keys);
      glsc::Rng rng(cw.sample_seed);
      diffusion::SamplerConfig sampler_cfg;
      sampler_cfg.steps = steps;
      const Tensor keys_normed = norm.Normalize(y_keys, &ws);
      const Tensor gen_normed = diffusion::SampleConditional(
          &g.unet(), g.schedule(), sampler_cfg, keys_normed,
          g.keyframe_indices(), g.config().window, rng, &ws);
      Tensor gen_latents = norm.Denormalize(gen_normed, &ws);
      glsc::RoundInPlace(&gen_latents);
      const Tensor full_latents =
          diffusion::Compose(gen_latents, y_keys, g.generated_indices(),
                             g.keyframe_indices(), &ws);
      d_sampler = Now() - t;
      t = Now();
      const Tensor decoded = g.vae().DecodeLatent(full_latents, &ws);
      recon = decoded.Reshape({window.dim(0), window.dim(1), window.dim(2)})
                  .Clone();
      d_vae = Now() - t;
    }
    t = Now();
    cw.corrections.resize(static_cast<std::size_t>(window.dim(0)));
    const std::int64_t hw = window.dim(1) * window.dim(2);
    for (std::int64_t f = 0; f < window.dim(0); ++f) {
      Tensor orig({window.dim(1), window.dim(2)});
      Tensor rec({window.dim(1), window.dim(2)});
      std::copy_n(window.data() + f * hw, hw, orig.data());
      std::copy_n(recon.data() + f * hw, hw, rec.data());
      cw.corrections[static_cast<std::size_t>(f)] =
          g.pca().Correct(orig, &rec, tau).payload;
    }
    const double d_pca = Now() - t;
    glsc::ByteWriter bytes;
    core::SerializeWindow(cw, &bytes);
    if (bytes.bytes() != reference) out.identical = false;
    if (run == 0) {
      slabs_warm = ws.stats().slab_allocations;
      continue;
    }
    t_codec += d_codec;
    t_enc += d_enc;
    t_entropy += d_entropy;
    t_sampler += d_sampler;
    t_vae += d_vae;
    t_pca += d_pca;
    ++timed_windows;
  }
  const double per_window = 1e3 / static_cast<double>(timed_windows);
  out.vae_encode_ms_per_window = t_enc * per_window;
  out.entropy_ms_per_window = t_entropy * per_window;
  out.sampler_ms_per_window = t_sampler * per_window;
  out.vae_decode_ms_per_window = t_vae * per_window;
  out.pca_correct_ms_per_window = t_pca * per_window;
  out.unaccounted_share =
      1.0 - Share(t_enc + t_entropy + t_sampler + t_vae + t_pca, t_codec);
  out.steady_slab_allocations = ws.stats().slab_allocations - slabs_warm;
  out.workspace_peak_mb = static_cast<double>(ws.stats().peak_bytes) / kMb;
  return out;
}

ReaderReplay ReplayReader(const core::ArchiveReader& reader,
                          const std::string& path, int passes) {
  std::vector<std::uint8_t> file;
  glsc::ReadFileBytes(path, &file);
  tensor::Workspace ws;
  ReaderReplay out;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> decoded;
  double t_read = 0.0, t_filter = 0.0;
  double raw_bytes = 0.0;
  std::int64_t timed_records = 0;
  std::int64_t slabs_warm = 0;
  std::uint64_t stored_total = 0, raw_total = 0;
  const auto& records = reader.records();
  for (int pass = 0; pass < std::max(passes, 2); ++pass) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      const core::RecordRef& ref = records[i];
      double t = Now();
      reader.ReadPayloadInto(i, &payload, &ws);
      const double d_read = Now() - t;
      decoded.resize(ref.raw_size);
      t = Now();
      {
        tensor::Workspace::Scope scope(&ws);
        core::DecodeFiltered(file.data() + ref.offset, ref.length, ref.filter,
                             decoded.data(), decoded.size(), &ws);
      }
      const double d_filter = Now() - t;
      if (decoded != payload) out.identical = false;
      if (pass == 0) {
        stored_total += ref.length;
        raw_total += ref.raw_size;
        continue;
      }
      t_read += d_read;
      t_filter += d_filter;
      raw_bytes += static_cast<double>(ref.raw_size);
      ++timed_records;
    }
    if (pass == 0) slabs_warm = ws.stats().slab_allocations;
  }
  out.read_ms_per_record =
      t_read * 1e3 / static_cast<double>(std::max<std::int64_t>(timed_records, 1));
  out.filter_decode_gb_per_s = t_filter > 0.0 ? raw_bytes / t_filter / 1e9 : 0.0;
  out.stored_over_raw = raw_total > 0 ? static_cast<double>(stored_total) /
                                            static_cast<double>(raw_total)
                                      : 0.0;
  out.steady_slab_allocations = ws.stats().slab_allocations - slabs_warm;
  out.workspace_peak_mb = static_cast<double>(ws.stats().peak_bytes) / kMb;

  // Filter selection, the write side of the same records.
  double t_select = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    reader.ReadPayloadInto(i, &payload, &ws);
    const double t = Now();
    const core::FilteredBlock block =
        core::EncodeWithSelection(payload.data(), payload.size(), 1);
    t_select += Now() - t;
    if (block.spec != records[i].filter) out.identical = false;
  }
  out.select_ms_per_record =
      records.empty() ? 0.0
                      : t_select * 1e3 / static_cast<double>(records.size());
  return out;
}

void ReportReaderReplay(const ReaderReplay& replay, Report* report) {
  if (!replay.identical) {
    report->Fail("filter replay disagrees with ArchiveReader payloads");
  }
  report->Set("core.archive_reader.read_ms_per_record",
              replay.read_ms_per_record, "ms");
  report->Set("core.filters.decode_gb_per_s", replay.filter_decode_gb_per_s,
              "GB/s");
  report->Set("core.filters.select_ms_per_record",
              replay.select_ms_per_record, "ms");
  report->Set("core.filters.stored_over_raw", replay.stored_over_raw,
              "ratio");
}

namespace {

struct ConvShape {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
};

// The UNet's convolutions in forward order (see SpaceTimeUNet's constructor
// and batched forward): conv_in, res1 x2, down, res2 x2, up_conv, res3 x2,
// conv_out. res2 runs at half resolution.
std::vector<ConvShape> UnetConvs(const diffusion::UNetConfig& cfg,
                                 std::int64_t hw) {
  const std::int64_t mc = cfg.model_channels;
  const std::int64_t half = hw / 2;
  return {{cfg.EffectiveIn(), mc, 3, 1, 1, hw, hw}, {mc, mc, 3, 1, 1, hw, hw},
          {mc, mc, 3, 1, 1, hw, hw},                {mc, mc, 3, 2, 1, hw, hw},
          {mc, mc, 3, 1, 1, half, half},            {mc, mc, 3, 1, 1, half, half},
          {mc, mc, 3, 1, 1, hw, hw},                {mc, mc, 3, 1, 1, hw, hw},
          {mc, mc, 3, 1, 1, hw, hw},                {mc, cfg.EffectiveOut(), 3, 1, 1, hw, hw}};
}

template <typename F>
double TimeRepeated(F&& body, double min_seconds, int* reps_out) {
  body();  // warm
  int reps = 0;
  const double t0 = Now();
  do {
    body();
    ++reps;
  } while (Now() - t0 < min_seconds || reps < 3);
  *reps_out = reps;
  return Now() - t0;
}

}  // namespace

double TimeUnetStep(core::GlscCompressor& g, std::int64_t latent_hw,
                    std::int64_t windows, bool batched) {
  glsc::Rng rng(99);
  const Tensor x = Tensor::Randn({windows * g.config().window,
                                  g.config().unet.EffectiveIn(), latent_hw,
                                  latent_hw},
                                 rng);
  const std::int64_t t_index = g.schedule().steps() / 2;
  tensor::Workspace ws;
  int reps = 0;
  const double seconds = TimeRepeated(
      [&] {
        tensor::Workspace::Scope scope(&ws);
        if (batched) {
          (void)g.unet().Forward(x, t_index, &ws, windows);
        } else {
          (void)g.unet().Forward(x, t_index, &ws);
        }
      },
      0.3, &reps);
  return seconds * 1e3 / reps;
}

KernelReplay ReplayKernels(const core::GlscConfig& config,
                           std::int64_t latent_hw, std::int64_t windows,
                           bool batched) {
  KernelReplay out;
  const std::int64_t frames = windows * config.window;
  glsc::Rng rng(7);
  glsc::GemmScratch scratch;

  // Column matrices per conv call, built once; the GEMM loop then times only
  // GemmEx and the im2col loop only Im2ColLd.
  struct Call {
    const ConvShape* conv;
    std::int64_t frames;  // frames merged into this GEMM
    std::int64_t cols;    // GEMM N
  };
  const std::vector<ConvShape> convs = UnetConvs(config.unet, latent_hw);
  std::vector<Call> calls;
  for (const ConvShape& c : convs) {
    const std::int64_t oh = glsc::ConvOutDim(c.h, c.kernel, c.stride, c.pad);
    const std::int64_t ow = glsc::ConvOutDim(c.w, c.kernel, c.stride, c.pad);
    const std::int64_t col_rows = c.in_c * c.kernel * c.kernel;
    std::int64_t chunk = 1;
    if (batched) {
      constexpr std::int64_t kMergeScratchFloats = std::int64_t{1} << 20;
      chunk = std::max<std::int64_t>(
          1, std::min(frames, kMergeScratchFloats / (col_rows * oh * ow)));
    }
    for (std::int64_t f0 = 0; f0 < frames; f0 += chunk) {
      const std::int64_t bc = std::min(chunk, frames - f0);
      calls.push_back({&c, bc, bc * oh * ow});
    }
  }
  std::vector<Tensor> inputs, columns, weights, outputs, biases;
  double flops = 0.0, im2col_bytes = 0.0;
  for (const Call& call : calls) {
    const ConvShape& c = *call.conv;
    const std::int64_t col_rows = c.in_c * c.kernel * c.kernel;
    inputs.push_back(Tensor::Randn({call.frames, c.in_c, c.h, c.w}, rng));
    columns.push_back(Tensor::Empty({col_rows, call.cols}));
    weights.push_back(Tensor::Randn({c.out_c, col_rows}, rng, 0.1f));
    outputs.push_back(Tensor::Empty({c.out_c, call.cols}));
    biases.push_back(Tensor::Randn({c.out_c}, rng));
    flops += 2.0 * static_cast<double>(c.out_c) *
             static_cast<double>(call.cols) * static_cast<double>(col_rows);
    im2col_bytes += static_cast<double>(call.frames * c.in_c * c.h * c.w +
                                        col_rows * call.cols) *
                    sizeof(float);
  }
  const auto im2col_all = [&] {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const ConvShape& c = *calls[i].conv;
      const std::int64_t per_frame = calls[i].cols / calls[i].frames;
      for (std::int64_t f = 0; f < calls[i].frames; ++f) {
        glsc::Im2ColLd(inputs[i].data() + f * c.in_c * c.h * c.w, c.in_c, c.h,
                       c.w, c.kernel, c.kernel, c.stride, c.pad,
                       columns[i].data() + f * per_frame, calls[i].cols);
      }
    }
  };
  const auto gemm_all = [&] {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const ConvShape& c = *calls[i].conv;
      const std::int64_t col_rows = c.in_c * c.kernel * c.kernel;
      glsc::GemmEx(false, false, c.out_c, calls[i].cols, col_rows, 1.0f,
                   weights[i].data(), col_rows, columns[i].data(),
                   calls[i].cols, 0.0f, outputs[i].data(), calls[i].cols,
                   biases[i].data(), glsc::GemmEpilogue::kBiasRow, &scratch);
    }
  };
  int reps = 0;
  double seconds = TimeRepeated(im2col_all, 0.3, &reps);
  out.im2col_gb_per_s = im2col_bytes * reps / seconds / 1e9;
  seconds = TimeRepeated(gemm_all, 0.3, &reps);
  out.gemm_gflops = flops * reps / seconds / 1e9;

  {
    constexpr std::int64_t n = 256;
    const Tensor a = Tensor::Randn({n, n}, rng);
    const Tensor b = Tensor::Randn({n, n}, rng);
    Tensor c = Tensor::Empty({n, n});
    seconds = TimeRepeated(
        [&] {
          glsc::GemmEx(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                       0.0f, c.data(), n, nullptr, glsc::GemmEpilogue::kNone,
                       &scratch);
        },
        0.3, &reps);
    out.gemm_roof_gflops = 2.0 * n * n * n * reps / seconds / 1e9;
  }

  // The four attention calls of one UNet step: spatial and temporal at full
  // and half latent resolution.
  {
    const std::int64_t mc = config.unet.model_channels;
    const std::int64_t full = latent_hw * latent_hw;
    const std::int64_t half = full / 4;
    glsc::nn::MultiHeadSelfAttention attn(mc, config.unet.heads, rng);
    const std::vector<Tensor> xs = {
        Tensor::Randn({frames, full, mc}, rng),
        Tensor::Randn({windows * full, config.window, mc}, rng),
        Tensor::Randn({frames, half, mc}, rng),
        Tensor::Randn({windows * half, config.window, mc}, rng)};
    tensor::Workspace ws;
    seconds = TimeRepeated(
        [&] {
          for (const Tensor& x : xs) {
            tensor::Workspace::Scope scope(&ws);
            if (batched) {
              (void)attn.ForwardBatched(x, &ws);
            } else {
              (void)attn.Forward(x, &ws);
            }
          }
        },
        0.3, &reps);
    out.attention_ms_per_call =
        seconds * 1e3 / (static_cast<double>(reps) * xs.size());
  }
  return out;
}

}  // namespace perfbench

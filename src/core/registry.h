// Model artifact registry: training on one CPU core is the expensive part of
// every benchmark, so trained models are cached on disk keyed by a config
// tag. Every cached model (GetOrTrainGlsc, GetOrTrain, api::GetOrTrainCodec)
// goes through LoadOrTrain; set GLSC_RETRAIN=1 to ignore caches.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "baselines/cdc.h"
#include "baselines/gcd.h"
#include "baselines/vae_sr.h"
#include "compress/vae_trainer.h"
#include "core/glsc_compressor.h"
#include "data/dataset.h"
#include "diffusion/trainer.h"

namespace glsc::core {

struct TrainBudget {
  compress::VaeTrainConfig vae;
  diffusion::DiffusionTrainConfig diffusion;
  // Additional fine-tuning pass at `finetune_steps` (0 = skip), §4.6.
  std::int64_t finetune_steps = 0;
  std::int64_t finetune_iterations = 0;
  // Windows used to fit the PCA correction basis.
  std::int64_t pca_fit_windows = 6;
};

// Trains every stage of a fresh compressor: the VAE, the latent diffusion
// model (plus the optional fine-tune pass), then the PCA residual basis.
void TrainGlsc(GlscCompressor* compressor, const data::SequenceDataset& dataset,
               const TrainBudget& budget);

// The one artifact-cache body. When `<artifacts_dir>/<tag>.glsc` exists and
// GLSC_RETRAIN is unset, `load` reads it; otherwise `train` runs and `save`
// writes the artifact, creating a missing artifacts_dir (and parents). A
// directory that cannot be created throws, so a bad cache location fails
// loudly instead of silently dropping the trained model. Runs under a
// process-wide lock: two same-tag callers would otherwise both miss, train
// twice and interleave their writes.
void LoadOrTrain(const std::string& artifacts_dir, const std::string& tag,
                 const std::function<void(ByteReader*)>& load,
                 const std::function<void()>& train,
                 const std::function<void(ByteWriter*)>& save);

// LoadOrTrain for a model with Save/Load: `make` constructs it, `train`
// trains it.
template <typename Model>
std::unique_ptr<Model> GetOrTrain(
    const std::string& artifacts_dir, const std::string& tag,
    const std::function<std::unique_ptr<Model>()>& make,
    const std::function<void(Model*)>& train) {
  auto model = make();
  LoadOrTrain(
      artifacts_dir, tag, [&](ByteReader* in) { model->Load(in); },
      [&] { train(model.get()); }, [&](ByteWriter* out) { model->Save(out); });
  return model;
}

// A GLSC compressor built from `config`, loaded from the cache or trained
// with TrainGlsc and saved.
std::unique_ptr<GlscCompressor> GetOrTrainGlsc(
    const data::SequenceDataset& dataset, const GlscConfig& config,
    const TrainBudget& budget, const std::string& artifacts_dir,
    const std::string& tag);

// `<artifacts_dir>/<tag>.glsc`, the file LoadOrTrain reads and writes.
std::string ArtifactPath(const std::string& artifacts_dir,
                         const std::string& tag);

// Fits the PCA basis from pipeline residuals on training windows.
void FitPcaFromResiduals(GlscCompressor* compressor,
                         const data::SequenceDataset& dataset,
                         std::int64_t fit_windows, std::int64_t crop);

}  // namespace glsc::core

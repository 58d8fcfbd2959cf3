#include "postprocess/residual_pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "codec/huffman.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/status.h"

namespace glsc::postprocess {
namespace {

// Quantization resolution of kept coefficients: 1/2^12 of the per-correction
// coefficient scale. Fine enough that the quantization term rarely forces an
// extra coefficient, coarse enough to keep the payload small.
constexpr int kQuantBits = 12;

// Correction payloads come from archive bytes: a failed check on them means a
// corrupt record (kDataLoss), not a bug, so serving layers can tell the two
// apart.
void CheckPayload(bool ok, const char* what) {
  if (!ok) {
    throw StatusError(ErrorCode::kDataLoss,
                      std::string("corrupt PCA correction: ") + what);
  }
}

}  // namespace

ResidualPca::ResidualPca(const PcaConfig& config) : config_(config) {
  GLSC_CHECK(config_.block >= 2);
}

void ResidualPca::Fit(const std::vector<Tensor>& residual_frames) {
  const std::int64_t d = dimension();
  const std::int64_t block = config_.block;
  std::vector<double> cov(static_cast<std::size_t>(d * d), 0.0);
  std::int64_t samples = 0;

  std::vector<double> vec(static_cast<std::size_t>(d));
  for (const Tensor& frame : residual_frames) {
    GLSC_CHECK(frame.rank() == 2);
    GLSC_CHECK(frame.dim(0) % block == 0 && frame.dim(1) % block == 0);
    const std::int64_t w = frame.dim(1);
    for (std::int64_t by = 0; by < frame.dim(0); by += block) {
      for (std::int64_t bx = 0; bx < w; bx += block) {
        for (std::int64_t i = 0; i < block; ++i) {
          for (std::int64_t j = 0; j < block; ++j) {
            vec[i * block + j] = frame.data()[(by + i) * w + bx + j];
          }
        }
        for (std::int64_t r = 0; r < d; ++r) {
          for (std::int64_t c = r; c < d; ++c) {
            cov[r * d + c] += vec[r] * vec[c];
          }
        }
        ++samples;
      }
    }
  }
  GLSC_CHECK_MSG(samples > 0, "no residual blocks to fit");
  for (std::int64_t r = 0; r < d; ++r) {
    for (std::int64_t c = r; c < d; ++c) {
      cov[r * d + c] /= static_cast<double>(samples);
      cov[c * d + r] = cov[r * d + c];
    }
  }

  std::vector<double> eigvals;
  SymmetricEigen(cov, static_cast<int>(d), &eigvals, &basis_);
}

void ResidualPca::ProjectBlock(const Tensor& field, std::int64_t by,
                               std::int64_t bx,
                               std::vector<double>* coeffs) const {
  const std::int64_t d = dimension();
  const std::int64_t block = config_.block;
  const std::int64_t w = field.dim(1);
  coeffs->assign(static_cast<std::size_t>(d), 0.0);
  for (std::int64_t i = 0; i < block; ++i) {
    for (std::int64_t j = 0; j < block; ++j) {
      const double v = field.data()[(by + i) * w + bx + j];
      const std::int64_t row = i * block + j;
      for (std::int64_t k = 0; k < d; ++k) {
        (*coeffs)[k] += v * basis_[row * d + k];
      }
    }
  }
}

ResidualPca::Correction ResidualPca::Correct(const Tensor& original,
                                             Tensor* reconstruction,
                                             double tau) const {
  GLSC_CHECK(fitted());
  GLSC_CHECK(original.shape() == reconstruction->shape());
  GLSC_CHECK(original.rank() == 2);
  const std::int64_t block = config_.block;
  GLSC_CHECK(original.dim(0) % block == 0 && original.dim(1) % block == 0);
  const std::int64_t d = dimension();
  const std::int64_t blocks_y = original.dim(0) / block;
  const std::int64_t blocks_x = original.dim(1) / block;

  const Tensor residual = Sub(original, *reconstruction);

  Correction result;
  result.l2_before = std::sqrt(SumSquares(residual));

  // Project every block; collect (global coefficient id, value).
  struct Entry {
    std::int64_t id;  // block_index * D + coefficient_index
    double value;
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(blocks_y * blocks_x * d));
  std::vector<double> coeffs;
  double total_energy = 0.0;
  for (std::int64_t by = 0; by < blocks_y; ++by) {
    for (std::int64_t bx = 0; bx < blocks_x; ++bx) {
      ProjectBlock(residual, by * block, bx * block, &coeffs);
      const std::int64_t base = (by * blocks_x + bx) * d;
      for (std::int64_t k = 0; k < d; ++k) {
        entries.push_back({base + k, coeffs[static_cast<std::size_t>(k)]});
        total_energy += coeffs[k] * coeffs[k];
      }
    }
  }
  // NOTE: with an orthonormal basis the projection is lossless in energy, so
  // total_energy == ||r||^2 up to round-off. The selection below works with
  // the projected energy; the final exact check uses the reconstruction.

  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::fabs(a.value) > std::fabs(b.value);
  });

  GLSC_CHECK_MSG(tau > 0.0, "error bound tau must be positive");
  const double tau2 = tau * tau;
  const double scale =
      entries.empty() ? 1.0 : std::max(std::fabs(entries[0].value), 1e-30);

  // Greedy selection at a given quantization step. If the step is too coarse
  // to reach tau (quantization error or zero-quantized tail dominates), the
  // outer loop halves it and retries — the bound is enforced, not attempted.
  std::vector<Entry> kept;
  std::vector<std::int32_t> qvalues;
  double step = scale / static_cast<double>(1 << kQuantBits);
  double trial_step = step;
  for (int attempt = 0; attempt < 40; ++attempt, trial_step *= 0.5) {
    kept.clear();
    qvalues.clear();
    step = trial_step;
    double remaining = total_energy;
    for (const Entry& e : entries) {
      if (remaining <= tau2) break;
      const auto q = static_cast<std::int32_t>(std::llround(e.value / step));
      if (q == 0) break;  // sorted by |value|: the rest also quantize to 0
      const double quant_err = e.value - q * step;
      remaining -= e.value * e.value;
      remaining += quant_err * quant_err;
      kept.push_back(e);
      qvalues.push_back(q);
    }
    if (remaining <= tau2) break;
  }
  result.coefficients = static_cast<std::int64_t>(kept.size());

  // Serialize: header (block geometry + step), delta-coded ids, values. Both
  // integer streams go through Huffman.
  ByteWriter payload;
  payload.PutVarU64(static_cast<std::uint64_t>(original.dim(0)));
  payload.PutVarU64(static_cast<std::uint64_t>(original.dim(1)));
  payload.PutF64(step);
  {
    // Ids ascend after sorting by id; delta-code for small symbols.
    std::vector<std::size_t> order(kept.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return kept[a].id < kept[b].id;
    });
    std::vector<std::int32_t> id_deltas;
    std::vector<std::int32_t> values;
    id_deltas.reserve(kept.size());
    values.reserve(kept.size());
    std::int64_t prev = 0;
    for (const std::size_t i : order) {
      id_deltas.push_back(static_cast<std::int32_t>(kept[i].id - prev));
      prev = kept[i].id;
      values.push_back(qvalues[i]);
    }
    const auto ids_bytes = codec::HuffmanEncode(id_deltas);
    const auto val_bytes = codec::HuffmanEncode(values);
    payload.PutVarU64(ids_bytes.size());
    payload.PutBytes(ids_bytes.data(), ids_bytes.size());
    payload.PutVarU64(val_bytes.size());
    payload.PutBytes(val_bytes.data(), val_bytes.size());
  }
  result.payload = payload.Release();

  // Apply the correction exactly as the decoder will.
  Apply(result.payload, reconstruction);
  result.l2_after = std::sqrt(
      SumSquares(Sub(original, *reconstruction)));
  // Exact post-hoc verification; fail loudly rather than ship a broken bound.
  // The 1e-4 relative slack covers float32 accumulation in Apply (selection
  // ran in double; the corrected field is float32).
  GLSC_CHECK_MSG(result.l2_after <= tau * (1.0 + 1e-4) + 1e-12,
                 "error-bound violated: " << result.l2_after << " > " << tau);
  return result;
}

void ResidualPca::Apply(const std::vector<std::uint8_t>& payload,
                        Tensor* reconstruction) const {
  GLSC_CHECK(fitted());
  const std::int64_t height = reconstruction->dim(0);
  const std::int64_t width = reconstruction->dim(1);
  ByteReader in(payload);
  CheckPayload(in.GetVarU64() == static_cast<std::uint64_t>(height) &&
                   in.GetVarU64() == static_cast<std::uint64_t>(width),
               "frame geometry differs from the record's");
  const double step = in.GetF64();

  const std::uint64_t ids_size = in.GetVarU64();
  CheckPayload(ids_size <= in.remaining(), "id stream length past the end");
  std::vector<std::uint8_t> ids_bytes(ids_size);
  in.GetBytes(ids_bytes.data(), ids_size);
  const std::uint64_t val_size = in.GetVarU64();
  CheckPayload(val_size <= in.remaining(), "value stream length past the end");
  std::vector<std::uint8_t> val_bytes(val_size);
  in.GetBytes(val_bytes.data(), val_size);

  const auto id_deltas = codec::HuffmanDecode(ids_bytes);
  const auto values = codec::HuffmanDecode(val_bytes);
  CheckPayload(id_deltas.size() == values.size(), "id and value counts differ");

  const std::int64_t block = config_.block;
  const std::int64_t d = dimension();
  const std::int64_t blocks_x = width / block;
  // Every id must name a coefficient of a block inside the frame.
  const std::int64_t ids_end = (height / block) * blocks_x * d;

  std::int64_t id = 0;
  for (std::size_t n = 0; n < id_deltas.size(); ++n) {
    id += id_deltas[n];
    CheckPayload(id >= 0 && id < ids_end, "coefficient id outside the frame");
    const std::int64_t block_index = id / d;
    const std::int64_t k = id % d;
    const std::int64_t by = (block_index / blocks_x) * block;
    const std::int64_t bx = (block_index % blocks_x) * block;
    const double c = values[n] * step;
    // x_G += U_s c_q for this coefficient: add c * basis column k.
    for (std::int64_t i = 0; i < block; ++i) {
      for (std::int64_t j = 0; j < block; ++j) {
        const std::int64_t row = i * block + j;
        reconstruction->data()[(by + i) * width + bx + j] +=
            static_cast<float>(c * basis_[row * d + k]);
      }
    }
  }
}

void ResidualPca::Save(ByteWriter* out) const {
  out->PutVarU64(static_cast<std::uint64_t>(config_.block));
  out->PutVarU64(basis_.size());
  for (const double v : basis_) out->PutF64(v);
}

void ResidualPca::Load(ByteReader* in) {
  config_.block = static_cast<std::int64_t>(in->GetVarU64());
  basis_.resize(in->GetVarU64());
  for (double& v : basis_) v = in->GetF64();
}

}  // namespace glsc::postprocess

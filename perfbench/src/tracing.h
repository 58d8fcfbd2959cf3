// Tracing from outside the library: a timing decorator around the
// api::Compressor a session or scheduler receives. Every codec call becomes a
// span (kind, start, end, windows in the call) in an in-memory log that the
// benchmark reads once the traced run ends. The decorator forwards to the
// wrapped codec unchanged, so traced output is byte-identical to untraced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/compressor.h"
#include "util/mutex.h"

namespace perfbench {

enum class SpanKind { kCompress, kDecompress };

struct Span {
  SpanKind kind = SpanKind::kDecompress;
  double begin = 0.0;  // perfbench::Now() seconds
  double end = 0.0;
  std::int64_t windows = 0;
};

class SpanLog {
 public:
  void Record(const Span& span);
  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  mutable glsc::Mutex mu_{"perfbench.SpanLog.mu"};
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

struct SpanTotals {
  std::int64_t calls = 0;
  std::int64_t windows = 0;
  double seconds = 0.0;

  double MsPerWindow() const {
    return windows > 0 ? seconds * 1e3 / static_cast<double>(windows) : 0.0;
  }
  double WindowsPerCall() const {
    return calls > 0 ? static_cast<double>(windows) / static_cast<double>(calls)
                     : 0.0;
  }
};

SpanTotals Totals(const std::vector<Span>& spans, SpanKind kind);

class TracingCompressor final : public glsc::api::Compressor {
 public:
  // Borrows `inner` and `log`; both must outlive the decorator.
  TracingCompressor(glsc::api::Compressor* inner, SpanLog* log);
  // Owns `inner` (what Clone() hands to sessions and schedulers).
  TracingCompressor(std::unique_ptr<glsc::api::Compressor> inner, SpanLog* log);

  std::string name() const override { return inner_->name(); }
  glsc::api::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::int64_t window() const override { return inner_->window(); }

  std::vector<std::uint8_t> CompressWindow(
      const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
      const std::vector<glsc::data::FrameNorm>& norms) override;
  std::vector<std::uint8_t> CompressWindow(
      const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
      const std::vector<glsc::data::FrameNorm>& norms,
      glsc::tensor::Workspace* ws) override;
  glsc::Tensor DecompressWindow(
      const std::vector<std::uint8_t>& payload) override;
  glsc::Tensor DecompressWindow(const std::vector<std::uint8_t>& payload,
                                glsc::tensor::Workspace* ws) override;
  std::vector<glsc::Tensor> DecompressWindows(
      const std::vector<const std::vector<std::uint8_t>*>& payloads,
      glsc::tensor::Workspace* ws) override;

  void Train(const glsc::data::SequenceDataset& dataset,
             const glsc::api::TrainOptions& options) override {
    inner_->Train(dataset, options);
  }
  void SaveModel(glsc::ByteWriter* out) override { inner_->SaveModel(out); }
  void LoadModel(glsc::ByteReader* in) override { inner_->LoadModel(in); }
  std::unique_ptr<glsc::api::Compressor> Clone() override;

 private:
  std::unique_ptr<glsc::api::Compressor> owned_;
  glsc::api::Compressor* inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#include "tracing.h"

#include "report.h"

namespace perfbench {

void SpanLog::Record(const Span& span) {
  glsc::MutexLock lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Snapshot() const {
  glsc::MutexLock lock(mu_);
  return spans_;
}

void SpanLog::Clear() {
  glsc::MutexLock lock(mu_);
  spans_.clear();
}

SpanTotals Totals(const std::vector<Span>& spans, SpanKind kind) {
  SpanTotals out;
  for (const Span& s : spans) {
    if (s.kind != kind) continue;
    ++out.calls;
    out.windows += s.windows;
    out.seconds += s.end - s.begin;
  }
  return out;
}

TracingCompressor::TracingCompressor(glsc::api::Compressor* inner,
                                     SpanLog* log)
    : inner_(inner), log_(log) {}

TracingCompressor::TracingCompressor(
    std::unique_ptr<glsc::api::Compressor> inner, SpanLog* log)
    : owned_(std::move(inner)), inner_(owned_.get()), log_(log) {}

std::vector<std::uint8_t> TracingCompressor::CompressWindow(
    const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
    const std::vector<glsc::data::FrameNorm>& norms) {
  const double begin = Now();
  auto out = inner_->CompressWindow(window, bound, norms);
  log_->Record({SpanKind::kCompress, begin, Now(), 1});
  return out;
}

std::vector<std::uint8_t> TracingCompressor::CompressWindow(
    const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
    const std::vector<glsc::data::FrameNorm>& norms,
    glsc::tensor::Workspace* ws) {
  const double begin = Now();
  auto out = inner_->CompressWindow(window, bound, norms, ws);
  log_->Record({SpanKind::kCompress, begin, Now(), 1});
  return out;
}

glsc::Tensor TracingCompressor::DecompressWindow(
    const std::vector<std::uint8_t>& payload) {
  const double begin = Now();
  glsc::Tensor out = inner_->DecompressWindow(payload);
  log_->Record({SpanKind::kDecompress, begin, Now(), 1});
  return out;
}

glsc::Tensor TracingCompressor::DecompressWindow(
    const std::vector<std::uint8_t>& payload, glsc::tensor::Workspace* ws) {
  const double begin = Now();
  glsc::Tensor out = inner_->DecompressWindow(payload, ws);
  log_->Record({SpanKind::kDecompress, begin, Now(), 1});
  return out;
}

std::vector<glsc::Tensor> TracingCompressor::DecompressWindows(
    const std::vector<const std::vector<std::uint8_t>*>& payloads,
    glsc::tensor::Workspace* ws) {
  const double begin = Now();
  auto out = inner_->DecompressWindows(payloads, ws);
  log_->Record({SpanKind::kDecompress, begin, Now(),
                static_cast<std::int64_t>(payloads.size())});
  return out;
}

std::unique_ptr<glsc::api::Compressor> TracingCompressor::Clone() {
  return std::make_unique<TracingCompressor>(inner_->Clone(), log_);
}

}  // namespace perfbench

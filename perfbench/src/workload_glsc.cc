// glsc-scan and glsc-encode: the GLSC decode and encode paths on a seeded
// 32x32 climate field, at the ROADMAP baseline configuration (window 16,
// 6 DDIM steps) with a pointwise-L2 bound tight enough that PCA corrections
// are coded.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/adapters.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "model.h"
#include "replay.h"
#include "serve/decode_scheduler.h"
#include "stats.h"
#include "tensor/metrics.h"
#include "tracing.h"
#include "util/bytes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using glsc::Tensor;
namespace api = glsc::api;
namespace core = glsc::core;
namespace serve = glsc::serve;

constexpr std::int64_t kFrames = 256;  // 16 windows of 16 frames
constexpr std::int64_t kSide = 32;
constexpr double kTau = 2.0;  // per-frame L2 bound, normalized units
// Slack on the physical-units bound check, as in tests/api_test.cc: the
// bound holds in normalized units and the denormalization rounds.
constexpr double kBoundSlack = 1e-3;
constexpr std::int64_t kWorkers = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kQueryFrames = 256;  // one spanning query = 16 records
constexpr int kScanSetups = 3;
constexpr int kEncodeSetups = 9;
constexpr std::size_t kEncodeReplayWindows = 4;
constexpr double kMiB = 1024.0 * 1024.0;

// One variable of kFrames frames made of independent climate realizations,
// one per window, each from its own seed-derived generator seed. A single
// realization draws its jet, gyre, diffusivity and forcing at random, which
// moves the compression ratio by ~10% and the NRMSE by ~40% from seed to
// seed; sixteen of them per field average that out.
Tensor MakeField(std::uint64_t seed) {
  constexpr std::int64_t kPerRealization = 16;
  Tensor field({1, kFrames, kSide, kSide});
  for (std::int64_t i = 0; i < kFrames / kPerRealization; ++i) {
    glsc::data::FieldSpec spec;
    spec.variables = 1;
    spec.frames = kPerRealization;
    spec.height = kSide;
    spec.width = kSide;
    spec.seed = seed * 1000003ull + static_cast<std::uint64_t>(i);
    const Tensor part = glsc::data::GenerateClimate(spec);
    std::copy_n(part.data(), part.numel(), field.data() + i * part.numel());
  }
  return field;
}

struct Encoded {
  double seconds = 0.0;        // first Push through the written file
  double write_seconds = 0.0;  // DatasetArchive::WriteFile alone
  std::uint64_t file_bytes = 0;
  std::int64_t windows = 0;
};

Encoded EncodeToFile(api::Compressor* codec, const Tensor& field,
                     const std::string& path) {
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kPointwiseL2, kTau};
  options.parallelism = kWorkers;
  Encoded out;
  const double t0 = Now();
  api::EncodeSession session(codec, field.dim(0), field.dim(2), field.dim(3),
                             options);
  session.Push(field);
  const core::DatasetArchive archive = session.Finish();
  const double t_write = Now();
  archive.WriteFile(path);
  const double t1 = Now();
  out.seconds = t1 - t0;
  out.write_seconds = t1 - t_write;
  out.file_bytes = std::filesystem::file_size(path);
  out.windows = static_cast<std::int64_t>(archive.entries().size());
  return out;
}

std::uint64_t FileHash(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  glsc::ReadFileBytes(path, &bytes);
  return Fnv1a64(bytes.data(), bytes.size());
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Every frame's L2 error, in physical units, within tau * frame range.
void CheckTau(const Tensor& field, const Tensor& decoded, Report* report) {
  const std::int64_t hw = kSide * kSide;
  double worst = 0.0;
  for (std::int64_t t = 0; t < kFrames; ++t) {
    const float* x = field.data() + t * hw;
    const float* y = decoded.data() + t * hw;
    const glsc::data::FrameNorm norm = glsc::data::ComputeFrameNorm(x, hw);
    double l2 = 0.0;
    for (std::int64_t k = 0; k < hw; ++k) {
      const double d = static_cast<double>(x[k]) - y[k];
      l2 += d * d;
    }
    worst = std::max(worst, std::sqrt(l2) / (kTau * norm.range));
  }
  report->Note("worst frame L2 error = " + std::to_string(worst) + " x tau");
  if (!(worst <= 1.0 + kBoundSlack)) {
    report->Fail("a decoded frame misses the pointwise-L2 bound (" +
                 std::to_string(worst) + " x tau)");
  }
}

double FieldNrmse(const Tensor& field, const Tensor& decoded) {
  return glsc::Nrmse(field, decoded.Reshape(field.shape()));
}

struct Pass {
  Tensor decoded;                     // [T, H, W], physical units
  std::vector<double> query_seconds;  // one per spanning Get
  std::vector<std::pair<double, double>> query_intervals;
  double seconds = 0.0;
};

// One start-to-end scan: spanning Gets of kQueryFrames frames.
Pass ScanPass(serve::DecodeScheduler* scheduler, Report* report) {
  Pass pass;
  pass.decoded = Tensor::Empty({kFrames, kSide, kSide});
  const double t0 = Now();
  for (std::int64_t f = 0; f < kFrames; f += kQueryFrames) {
    const std::int64_t hi = std::min(f + kQueryFrames, kFrames);
    ++report->attempted;
    const double begin = Now();
    try {
      const Tensor part = scheduler->Get(0, f, hi);
      const double end = Now();
      pass.query_seconds.push_back(end - begin);
      pass.query_intervals.emplace_back(begin, end);
      std::copy_n(part.data(), part.numel(),
                  pass.decoded.data() + f * kSide * kSide);
    } catch (const std::exception& e) {
      ++report->failed;
      report->Fail(std::string("scheduler Get failed: ") + e.what());
    }
  }
  pass.seconds = Now() - t0;
  return pass;
}

double WindowsPerSecond(double seconds) {
  return static_cast<double>(kFrames / 16) / seconds;
}

// The fetch metrics of a closed-loop scan: per-query latency and the rate of
// successful queries.
void SetFetchMetrics(const std::vector<double>& query_seconds,
                     Report* report) {
  std::vector<double> ms;
  double busy = 0.0;
  for (const double s : query_seconds) {
    ms.push_back(s * 1e3);
    busy += s;
  }
  const TailPoint tail = TailPercentile(ms, 99.0);
  report->Note("fetch tail: p" + std::to_string(tail.percentile) + " = " +
               std::to_string(tail.value) + " ms of " +
               std::to_string(tail.samples) + " queries (" +
               std::to_string(tail.beyond) + " beyond)");
  report->Set("fetch_p50_ms", Median(ms), "ms");
  report->Set("fetch_saturation_qps",
              static_cast<double>(ms.size()) / busy, "req/s");
}

serve::ScheduleOptions ScanSchedule() {
  serve::ScheduleOptions options;
  options.workers = kWorkers;
  options.cache_windows = 0;
  options.max_batch = kMaxBatch;
  return options;
}

std::vector<std::vector<std::uint8_t>> AllPayloads(
    const core::ArchiveReader& reader) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    out.push_back(reader.ReadPayload(i));
  }
  return out;
}

double CorrectionShare(const std::vector<std::vector<std::uint8_t>>& payloads) {
  double corrections = 0.0, total = 0.0;
  for (const auto& p : payloads) {
    glsc::ByteReader in(p);
    corrections +=
        static_cast<double>(core::DeserializeWindow(&in).CorrectionBytes());
    total += static_cast<double>(p.size());
  }
  return total > 0.0 ? corrections / total : 0.0;
}

std::vector<Tensor> ReplayWindows(const Tensor& field) {
  glsc::data::SequenceDataset dataset(field);
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < kEncodeReplayWindows; ++i) {
    out.push_back(
        dataset.NormalizedWindow(0, static_cast<std::int64_t>(i) * 16, 16));
  }
  return out;
}

// Scheduler-side traced counters over a traced scheduler's Gets.
void SetSchedulerTrace(const serve::DecodeScheduler& scheduler,
                       const std::vector<Span>& spans,
                       const std::vector<std::pair<double, double>>& gets,
                       Report* report) {
  const SpanTotals decode = Totals(spans, SpanKind::kDecompress);
  std::vector<std::pair<double, double>> codec;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kDecompress) codec.emplace_back(s.begin, s.end);
  }
  double self = 0.0;
  for (const auto& [b, e] : gets) {
    self += (e - b) - CoveredSeconds(codec, b, e);
  }
  const double lookups = static_cast<double>(scheduler.cache_hits() +
                                             scheduler.decoded_records());
  report->Set("serve.decode_scheduler.hit_ratio",
              lookups > 0.0 ? scheduler.cache_hits() / lookups : 0.0,
              "ratio");
  report->Set("serve.decode_scheduler.decoded_records",
              static_cast<double>(decode.windows) / gets.size(), "records/req");
  report->Set("serve.decode_scheduler.batch_records_mean",
              decode.WindowsPerCall(), "records");
  report->Set("serve.decode_scheduler.self_ms", self * 1e3 / gets.size(),
              "ms/req");
  report->Set("api.codec.decompress_ms_per_window", decode.MsPerWindow(),
              "ms");
}

void SetKernelReplay(const KernelReplay& k, Report* report) {
  report->Set("tensor.gemm_gflops", k.gemm_gflops, "GFLOP/s");
  report->Set("tensor.gemm_roof_gflops", k.gemm_roof_gflops, "GFLOP/s");
  report->Set("tensor.im2col_gb_per_s", k.im2col_gb_per_s, "GB/s");
  report->Set("nn.attention_ms_per_call", k.attention_ms_per_call, "ms");
}

api::GlscAdapter* AsGlsc(api::Compressor* codec) {
  auto* adapter = dynamic_cast<api::GlscAdapter*>(codec);
  GLSC_CHECK(adapter != nullptr);
  return adapter;
}

}  // namespace

void RunGlscScan(const RunOptions& options, Report* report) {
  const std::string path = options.workdir + "/glsc-scan.glsca";
  SpanLog setup_log;
  std::vector<double> setup_s, encode_wps, write_s;
  Tensor field;
  std::unique_ptr<api::Compressor> codec;
  std::optional<core::ArchiveReader> reader;
  Encoded encoded;
  for (int i = 0; i < kScanSetups; ++i) {
    reader.reset();
    const double t0 = Now();
    field = MakeField(options.seed);
    codec = LoadPinnedGlsc(options.model_path);
    TracingCompressor traced(codec.get(), &setup_log);
    encoded = EncodeToFile(options.trace ? &traced : codec.get(), field, path);
    reader.emplace(core::ArchiveReader::FromFile(path));
    setup_s.push_back(Now() - t0);
    encode_wps.push_back(static_cast<double>(encoded.windows) /
                         encoded.seconds);
    write_s.push_back(encoded.write_seconds);
  }
  const std::uint64_t field_bytes =
      static_cast<std::uint64_t>(field.numel()) * sizeof(float);

  if (!options.trace) {
    serve::DecodeScheduler scheduler(&*reader, codec.get(), ScanSchedule());
    const Pass first = ScanPass(&scheduler, report);  // warm-up, untimed
    CheckTau(field, first.decoded, report);
    std::vector<double> pass_wps, query_s;
    const double t0 = Now();
    while (Now() - t0 < options.seconds || pass_wps.size() < 3) {
      const Pass pass = ScanPass(&scheduler, report);
      if (!SameBytes(pass.decoded, first.decoded)) {
        report->Fail("repeated scans decoded different bytes");
      }
      pass_wps.push_back(WindowsPerSecond(pass.seconds));
      query_s.insert(query_s.end(), pass.query_seconds.begin(),
                     pass.query_seconds.end());
    }
    report->Set("scan_windows_per_s", Median(pass_wps), "windows/s");
    report->Set("scan_nrmse", FieldNrmse(field, first.decoded),
                "frac_of_range");
    report->Set("encode_windows_per_s", Median(encode_wps), "windows/s");
    report->Set("compression_ratio",
                static_cast<double>(field_bytes) /
                    static_cast<double>(encoded.file_bytes),
                "ratio");
    SetFetchMetrics(query_s, report);
    report->Set("setup_s", Median(setup_s), "s");
    return;
  }

  // Traced run: untraced and traced passes alternate; the traced scheduler
  // decodes through the timing decorator.
  SpanLog log;
  TracingCompressor traced_codec(codec.get(), &log);
  serve::DecodeScheduler plain(&*reader, codec.get(), ScanSchedule());
  serve::DecodeScheduler traced(&*reader, &traced_codec, ScanSchedule());
  const Pass first = ScanPass(&plain, report);
  const Pass traced_first = ScanPass(&traced, report);
  if (!SameBytes(first.decoded, traced_first.decoded)) {
    report->Fail("traced scan decoded different bytes than the untraced scan");
  }
  CheckTau(field, traced_first.decoded, report);
  log.Clear();
  std::vector<double> plain_s, traced_s;
  std::vector<std::pair<double, double>> gets;
  std::uint64_t stored = 0, raw = 0;
  const double t0 = Now();
  while (Now() - t0 < options.seconds || traced_s.size() < 3) {
    plain_s.push_back(ScanPass(&plain, report).seconds);
    const std::uint64_t stored0 = reader->payload_bytes_fetched();
    const std::uint64_t raw0 = reader->decoded_payload_bytes();
    const Pass pass = ScanPass(&traced, report);
    stored += reader->payload_bytes_fetched() - stored0;
    raw += reader->decoded_payload_bytes() - raw0;
    if (!SameBytes(pass.decoded, first.decoded)) {
      report->Fail("traced scan decoded different bytes than the untraced scan");
    }
    traced_s.push_back(pass.seconds);
    gets.insert(gets.end(), pass.query_intervals.begin(),
                pass.query_intervals.end());
  }
  SetSchedulerTrace(traced, log.Snapshot(), gets, report);
  report->Set("core.archive_reader.stored_mb",
              static_cast<double>(stored) / kMiB / gets.size(), "MB/req");
  report->Set("core.archive_reader.decoded_mb",
              static_cast<double>(raw) / kMiB / gets.size(), "MB/req");
  report->Set("api.codec.compress_ms_per_window",
              Totals(setup_log.Snapshot(), SpanKind::kCompress).MsPerWindow(),
              "ms");
  report->Set("core.container.write_ms", Median(write_s) * 1e3, "ms");
  report->Set("trace.overhead_share", Median(traced_s) / Median(plain_s) - 1.0,
              "ratio");

  api::GlscAdapter* adapter = AsGlsc(codec.get());
  const auto payloads = AllPayloads(*reader);
  const GlscDecodeReplay decode = ReplayGlscDecode(adapter, payloads, kMaxBatch);
  if (!decode.identical) {
    report->Fail("decode stage replay disagrees with DecompressWindows");
  }
  const GlscEncodeReplay encode =
      ReplayGlscEncode(adapter, ReplayWindows(field), kTau);
  if (!encode.identical) {
    report->Fail("encode stage replay disagrees with CompressWindow");
  }
  report->Set("codec.entropy_decode_ms_per_window",
              decode.entropy_ms_per_window, "ms");
  report->Set("diffusion.sampler_ms_per_window", decode.sampler_ms_per_window,
              "ms");
  report->Set("compress.vae_decode_ms_per_window",
              decode.vae_decode_ms_per_window, "ms");
  report->Set("postprocess.pca_apply_ms_per_window",
              decode.pca_apply_ms_per_window, "ms");
  report->Set("compress.vae_encode_ms_per_window",
              encode.vae_encode_ms_per_window, "ms");
  report->Set("postprocess.pca_correct_ms_per_window",
              encode.pca_correct_ms_per_window, "ms");
  report->Set("postprocess.correction_bytes_share", CorrectionShare(payloads),
              "ratio");
  report->Set("trace.unaccounted_share", decode.unaccounted_share, "ratio");
  report->Set("tensor.workspace.steady_slab_allocations",
              static_cast<double>(decode.steady_slab_allocations), "count");
  report->Set("tensor.workspace.peak_mb", decode.workspace_peak_mb, "MB");
  report->Set("diffusion.unet_ms_per_step",
              TimeUnetStep(adapter->compressor(), kSide / 4, kMaxBatch, true),
              "ms");
  ReportReaderReplay(ReplayReader(*reader, path, 3), report);
  SetKernelReplay(ReplayKernels(adapter->compressor().config(), kSide / 4,
                                kMaxBatch, /*batched=*/true),
                  report);
}

void RunGlscEncode(const RunOptions& options, Report* report) {
  const std::string path = options.workdir + "/glsc-encode.glsca";
  std::vector<double> setup_s;
  Tensor field;
  std::unique_ptr<api::Compressor> codec;
  for (int i = 0; i < kEncodeSetups; ++i) {
    const double t0 = Now();
    field = MakeField(options.seed);
    codec = LoadPinnedGlsc(options.model_path);
    setup_s.push_back(Now() - t0);
  }
  const std::uint64_t field_bytes =
      static_cast<std::uint64_t>(field.numel()) * sizeof(float);

  // The first encode writes the file the rest of the run reads back. It must
  // reopen, decode within tau and match the size the ratio is computed from.
  SpanLog log;
  TracingCompressor traced_codec(codec.get(), &log);
  const Encoded first = EncodeToFile(codec.get(), field, path);
  const std::uint64_t first_hash = FileHash(path);
  core::ArchiveReader reader = core::ArchiveReader::FromFile(path);
  if (reader.archive_bytes() != first.file_bytes) {
    report->Fail("reopened archive size differs from the encoded size");
  }
  SpanLog decode_log;
  TracingCompressor traced_decoder(codec.get(), &decode_log);
  serve::DecodeScheduler scheduler(
      &reader, options.trace ? &traced_decoder : codec.get(), ScanSchedule());
  const Pass warm = ScanPass(&scheduler, report);
  CheckTau(field, warm.decoded, report);
  decode_log.Clear();

  // Encodes (to a second file, which must equal the first) and scans of the
  // written file alternate over the run, about 3:1 in time.
  const std::string again = path + ".again";
  std::vector<double> wps, plain_s, traced_s, write_s, scan_wps, query_s;
  std::vector<std::pair<double, double>> gets;
  std::uint64_t stored = 0, raw = 0;
  const double t0 = Now();
  while (Now() - t0 < options.seconds || wps.size() < 3) {
    for (const bool traced : {false, true}) {
      if (traced && !options.trace) continue;
      const Encoded e =
          EncodeToFile(traced ? &traced_codec : codec.get(), field, again);
      report->attempted += e.windows;
      if (e.file_bytes != first.file_bytes || FileHash(again) != first_hash) {
        report->Fail("repeated encodes wrote different archives");
      }
      (traced ? traced_s : plain_s).push_back(e.seconds);
      if (!traced) wps.push_back(static_cast<double>(e.windows) / e.seconds);
      write_s.push_back(e.write_seconds);
    }
    const std::uint64_t stored0 = reader.payload_bytes_fetched();
    const std::uint64_t raw0 = reader.decoded_payload_bytes();
    const Pass pass = ScanPass(&scheduler, report);
    stored += reader.payload_bytes_fetched() - stored0;
    raw += reader.decoded_payload_bytes() - raw0;
    if (!SameBytes(pass.decoded, warm.decoded)) {
      report->Fail("repeated scans decoded different bytes");
    }
    scan_wps.push_back(WindowsPerSecond(pass.seconds));
    query_s.insert(query_s.end(), pass.query_seconds.begin(),
                   pass.query_seconds.end());
    gets.insert(gets.end(), pass.query_intervals.begin(),
                pass.query_intervals.end());
  }

  if (!options.trace) {
    report->Set("encode_windows_per_s", Median(wps), "windows/s");
    report->Set("compression_ratio",
                static_cast<double>(field_bytes) /
                    static_cast<double>(first.file_bytes),
                "ratio");
    report->Set("scan_windows_per_s", Median(scan_wps), "windows/s");
    report->Set("scan_nrmse", FieldNrmse(field, warm.decoded),
                "frac_of_range");
    SetFetchMetrics(query_s, report);
    report->Set("setup_s", Median(setup_s), "s");
    return;
  }

  SetSchedulerTrace(scheduler, decode_log.Snapshot(), gets, report);
  report->Set("core.archive_reader.stored_mb",
              static_cast<double>(stored) / kMiB / gets.size(), "MB/req");
  report->Set("core.archive_reader.decoded_mb",
              static_cast<double>(raw) / kMiB / gets.size(), "MB/req");
  report->Set("api.codec.compress_ms_per_window",
              Totals(log.Snapshot(), SpanKind::kCompress).MsPerWindow(), "ms");
  report->Set("core.container.write_ms", Median(write_s) * 1e3, "ms");
  report->Set("trace.overhead_share", Median(traced_s) / Median(plain_s) - 1.0,
              "ratio");

  api::GlscAdapter* adapter = AsGlsc(codec.get());
  const GlscEncodeReplay encode =
      ReplayGlscEncode(adapter, ReplayWindows(field), kTau);
  if (!encode.identical) {
    report->Fail("encode stage replay disagrees with CompressWindow");
  }
  const auto payloads = AllPayloads(reader);
  const GlscDecodeReplay decode = ReplayGlscDecode(adapter, payloads, kMaxBatch);
  if (!decode.identical) {
    report->Fail("decode stage replay disagrees with DecompressWindows");
  }
  // Encode runs the single-window decoder simulation, so the shared stage
  // metrics come from the encode replay; PCA apply only runs when the
  // written file is decoded.
  report->Set("compress.vae_encode_ms_per_window",
              encode.vae_encode_ms_per_window, "ms");
  report->Set("codec.entropy_decode_ms_per_window",
              encode.entropy_ms_per_window, "ms");
  report->Set("diffusion.sampler_ms_per_window", encode.sampler_ms_per_window,
              "ms");
  report->Set("compress.vae_decode_ms_per_window",
              encode.vae_decode_ms_per_window, "ms");
  report->Set("postprocess.pca_correct_ms_per_window",
              encode.pca_correct_ms_per_window, "ms");
  report->Set("postprocess.pca_apply_ms_per_window",
              decode.pca_apply_ms_per_window, "ms");
  report->Set("postprocess.correction_bytes_share", CorrectionShare(payloads),
              "ratio");
  report->Set("trace.unaccounted_share", encode.unaccounted_share, "ratio");
  report->Set("tensor.workspace.steady_slab_allocations",
              static_cast<double>(encode.steady_slab_allocations), "count");
  report->Set("tensor.workspace.peak_mb", encode.workspace_peak_mb, "MB");
  report->Set("diffusion.unet_ms_per_step",
              TimeUnetStep(adapter->compressor(), kSide / 4, 1, false), "ms");
  ReportReaderReplay(ReplayReader(reader, path, 3), report);
  SetKernelReplay(ReplayKernels(adapter->compressor().config(), kSide / 4, 1,
                                /*batched=*/false),
                  report);
}

}  // namespace perfbench

// sz-serve: random-range ShardManager::Get requests against 2 shards of
// multi-variable sz v4 archives of 64x64 turbulence frames (the generator's
// fixed spectrum keeps compressibility steady from seed to seed; a miss
// decodes a 256 KiB window). No neural network runs;
// queueing, the scheduler cache and single-flight, payload reads, filter
// inversion and sz decode do all the work.
//
// Load: open-loop pieces (Poisson arrivals at a fixed rate, latency timed
// from each request's due time) and closed-loop saturation pieces, both from
// 2 sender threads. Record popularity is Zipf-skewed over a working set 4x
// the per-shard scheduler LRU, so the hit ratio sits mid-range. The run is
// cut into segments of a few seconds; each segment runs an open-loop piece, a
// closed-loop piece, reference scans and re-encodes in turn, so host drift
// over the run reaches every metric alike.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/compressor.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "replay.h"
#include "serve/decode_scheduler.h"
#include "serve/shard_manager.h"
#include "stats.h"
#include "tracing.h"
#include "util/bytes.h"
#include "workloads.h"

namespace perfbench {

namespace {

using glsc::Tensor;
namespace api = glsc::api;
namespace core = glsc::core;
namespace serve = glsc::serve;

constexpr std::size_t kShards = 2;
constexpr std::int64_t kVariables = 4;
constexpr std::int64_t kFrames = 64;
constexpr std::int64_t kSide = 64;
constexpr std::int64_t kWindow = 16;
constexpr double kRelBound = 5e-2;
// Slack on the pointwise check, as in tests/api_test.cc.
constexpr double kBoundSlack = 1e-5;
constexpr std::size_t kCacheWindows = 4;  // per shard; working set is 16
constexpr double kOpenLoopQps = 100.0;
// Record popularity skew. The median request must sit clearly inside the
// miss cluster (decode-bound, ~ms), not on the edge between hit and miss
// latencies, where a small hit-ratio change swings p50 by ~30%.
constexpr double kZipfExponent = 0.6;
// One segment: open loop, closed loop, reference scans, re-encodes. The
// shares are of the segment; the re-encodes take the rest.
constexpr double kSegmentSeconds = 3.0;
constexpr double kOpenShare = 0.55;
constexpr double kClosedShare = 0.25;
constexpr double kScanShare = 0.1;
constexpr std::size_t kWarmRequests = 200;
constexpr std::size_t kOverheadRequests = 400;
constexpr std::size_t kMissReplayRequests = 100;
constexpr int kSetups = 3;
constexpr double kMiB = 1024.0 * 1024.0;

ScheduleSpec Spec() {
  ScheduleSpec spec;
  spec.shards = kShards;
  spec.variables = kVariables;
  spec.frames = kFrames;
  spec.window = kWindow;
  spec.rate_qps = kOpenLoopQps;
  spec.zipf_exponent = kZipfExponent;
  return spec;
}

serve::ScheduleOptions ShardSchedule(std::size_t cache_windows) {
  serve::ScheduleOptions options;
  options.workers = 1;
  options.cache_windows = cache_windows;
  return options;
}

serve::GetRequest ToGet(const Request& r) {
  serve::GetRequest get;
  get.shard = r.shard;
  get.variable = r.variable;
  get.t_begin = r.t_begin;
  get.t_end = r.t_end;
  return get;
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

struct Shard {
  Tensor field;  // [V, T, H, W]
  std::string path;
  std::vector<std::uint8_t> archive;  // the set-up encode, as written
  std::optional<core::ArchiveReader> reader;
  Tensor reference;  // direct DecodeScheduler::Get of every variable
};

struct Encoded {
  double seconds = 0.0;            // session start through serialized bytes
  double serialize_seconds = 0.0;  // DatasetArchive::Serialize alone
  std::int64_t windows = 0;
  std::vector<std::uint8_t> bytes;  // the v4 archive
};

// Encodes a shard's field into v4 archive bytes.
Encoded EncodeShard(api::Compressor* codec, const Shard& shard) {
  api::SessionOptions session_options;
  session_options.bound = {api::ErrorBoundMode::kRelative, kRelBound};
  Encoded out;
  const double e0 = Now();
  api::EncodeSession session(codec, kVariables, kSide, kSide, session_options);
  session.Push(shard.field);
  const core::DatasetArchive archive = session.Finish();
  const double s0 = Now();
  out.bytes = archive.Serialize();
  const double e1 = Now();
  out.seconds = e1 - e0;
  out.serialize_seconds = e1 - s0;
  out.windows = static_cast<std::int64_t>(archive.entries().size());
  return out;
}

// Byte-compares a served range with the direct scheduler decode.
bool Matches(const std::vector<Shard>& shards, const Request& r,
             const Tensor& out) {
  const Tensor& ref = shards[r.shard].reference;
  const std::int64_t plane = kSide * kSide;
  const std::int64_t n = (r.t_end - r.t_begin) * plane;
  return out.numel() == n &&
         std::memcmp(out.data(),
                     ref.data() + (r.variable * kFrames + r.t_begin) * plane,
                     static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

struct LoadResult {
  std::vector<Completion> completions;
  std::size_t mismatches = 0;
  std::int64_t queue_depth_max = 0;
};

// Open loop: each request is sent at its due time or, when both senders are
// busy, as soon as one frees up — the lateness is charged to its latency.
LoadResult RunOpenLoop(serve::ShardManager* manager,
                       const std::vector<Shard>& shards,
                       const std::vector<Request>& requests,
                       bool sample_depth) {
  LoadResult out;
  out.completions.resize(requests.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::int64_t> depth_max{0};
  const double origin = Now() + 0.01;
  const auto sender = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      Completion c;
      c.due_s = origin + requests[i].due_s;
      SleepUntil(c.due_s);
      if (sample_depth) {
        const auto depth =
            static_cast<std::int64_t>(manager->Stats().queue_depth);
        std::int64_t seen = depth_max.load();
        while (depth > seen && !depth_max.compare_exchange_weak(seen, depth)) {
        }
      }
      c.sent_s = Now();
      try {
        const Tensor result = manager->Get(ToGet(requests[i]));
        c.done_s = Now();
        c.ok = true;
        if (!Matches(shards, requests[i], result)) mismatches.fetch_add(1);
      } catch (const std::exception&) {
        c.done_s = Now();
      }
      out.completions[i] = c;
    }
  };
  std::thread a(sender), b(sender);
  a.join();
  b.join();
  out.mismatches = mismatches.load();
  out.queue_depth_max = depth_max.load();
  return out;
}

struct ClosedResult {
  double qps = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::size_t mismatches = 0;
};

// Closed loop: 2 senders, each issuing its next request when the previous
// one returns, cycling through `requests` from `*cursor` for `seconds`.
ClosedResult RunClosedLoop(serve::ShardManager* manager,
                           const std::vector<Shard>& shards,
                           const std::vector<Request>& requests,
                           std::size_t* cursor, double seconds) {
  std::atomic<std::size_t> next{*cursor};
  std::atomic<std::int64_t> ok{0}, failed{0};
  std::atomic<std::size_t> mismatches{0};
  const double start = Now();
  const double stop = start + seconds;
  const auto sender = [&] {
    while (Now() < stop) {
      const Request& r = requests[next.fetch_add(1) % requests.size()];
      try {
        const Tensor result = manager->Get(ToGet(r));
        ok.fetch_add(1);
        if (!Matches(shards, r, result)) mismatches.fetch_add(1);
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    }
  };
  std::thread a(sender), b(sender);
  a.join();
  b.join();
  const double elapsed = Now() - start;
  *cursor = next.load();
  ClosedResult out;
  out.qps = static_cast<double>(ok.load()) / elapsed;
  out.attempted = ok.load() + failed.load();
  out.failed = failed.load();
  out.mismatches = mismatches.load();
  return out;
}

std::vector<serve::ShardSpec> Specs(std::vector<Shard>& shards,
                                    api::Compressor* codec,
                                    std::size_t cache_windows) {
  std::vector<serve::ShardSpec> specs;
  for (Shard& s : shards) {
    serve::ShardSpec spec;
    spec.reader = &*s.reader;
    spec.codec = codec;
    spec.schedule = ShardSchedule(cache_windows);
    specs.push_back(spec);
  }
  return specs;
}

serve::ManagerOptions Manager() {
  serve::ManagerOptions options;
  options.worker_threads = 2;
  return options;
}

void WarmUp(serve::ShardManager* manager, const std::vector<Request>& pool) {
  for (std::size_t i = 0; i < kWarmRequests && i < pool.size(); ++i) {
    (void)manager->Get(ToGet(pool[i]));
  }
}

std::uint64_t StoredBytes(const std::vector<Shard>& shards) {
  std::uint64_t n = 0;
  for (const Shard& s : shards) n += s.reader->payload_bytes_fetched();
  return n;
}

std::uint64_t RawBytes(const std::vector<Shard>& shards) {
  std::uint64_t n = 0;
  for (const Shard& s : shards) n += s.reader->decoded_payload_bytes();
  return n;
}

// Manager overhead on a replayed sequence that stays in cache: each request
// goes through a manager and through a bare scheduler of the same
// configuration, interleaved, after one warming pass over both. Returns the
// median per-request difference in microseconds.
double ManagerOverheadUs(std::vector<Shard>& shards, api::Compressor* codec,
                         const std::vector<Request>& pool,
                         std::size_t* mismatches) {
  constexpr std::size_t kAllRecords = 64;
  serve::ShardManager manager(Specs(shards, codec, kAllRecords), Manager());
  std::vector<std::unique_ptr<serve::DecodeScheduler>> direct;
  for (Shard& s : shards) {
    direct.push_back(std::make_unique<serve::DecodeScheduler>(
        &*s.reader, codec, ShardSchedule(kAllRecords)));
  }
  std::vector<double> diff_us;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kOverheadRequests; ++i) {
      const Request& r = pool[i];
      const double t0 = Now();
      const Tensor a = manager.Get(ToGet(r));
      const double t1 = Now();
      const Tensor b = direct[r.shard]->Get(r.variable, r.t_begin, r.t_end);
      const double t2 = Now();
      if (!Matches(shards, r, a) || !Matches(shards, r, b)) ++*mismatches;
      if (pass == 1) diff_us.push_back(((t1 - t0) - (t2 - t1)) * 1e6);
    }
  }
  return Median(diff_us);
}

// Scheduler self time and stage coverage on cache misses: a bare traced
// scheduler per shard with the cache off and one caller. The stages are the
// codec spans plus the replayed per-record payload read.
void ReportMissReplay(std::vector<Shard>& shards, api::Compressor* codec,
                      const std::vector<Request>& pool,
                      const ReaderReplay& reader_replay, Report* report) {
  SpanLog log;
  TracingCompressor traced(codec, &log);
  std::vector<std::unique_ptr<serve::DecodeScheduler>> direct;
  for (Shard& s : shards) {
    direct.push_back(std::make_unique<serve::DecodeScheduler>(
        &*s.reader, &traced, ShardSchedule(0)));
  }
  std::vector<std::pair<double, double>> gets;
  for (std::size_t i = 0; i < kMissReplayRequests; ++i) {
    const Request& r = pool[i];
    const double t0 = Now();
    (void)direct[r.shard]->Get(r.variable, r.t_begin, r.t_end);
    gets.emplace_back(t0, Now());
  }
  const std::vector<Span> spans = log.Snapshot();
  std::vector<std::pair<double, double>> codec_iv;
  for (const Span& s : spans) codec_iv.emplace_back(s.begin, s.end);
  double wall = 0.0, self = 0.0;
  for (const auto& [b, e] : gets) {
    wall += e - b;
    self += (e - b) - CoveredSeconds(codec_iv, b, e);
  }
  const double reads = static_cast<double>(
                           Totals(spans, SpanKind::kDecompress).windows) *
                       reader_replay.read_ms_per_record / 1e3;
  report->Set("serve.decode_scheduler.self_ms",
              self * 1e3 / static_cast<double>(gets.size()), "ms/req");
  report->Set("trace.unaccounted_share", 1.0 - (wall - self + reads) / wall,
              "ratio");
}

// Requests [begin, end) of an open-loop schedule, due times rebased to the
// first of them.
std::vector<Request> Slice(const std::vector<Request>& requests,
                           std::size_t begin, std::size_t end) {
  std::vector<Request> out(requests.begin() + begin, requests.begin() + end);
  const double origin = out.empty() ? 0.0 : out.front().due_s;
  for (Request& r : out) r.due_s -= origin;
  return out;
}

// Re-encodes both shards in memory (no file I/O in the timed loop); every
// re-encode must reproduce the set-up archive bytes. Returns windows per
// second of the pass.
double EncodePass(api::Compressor* codec, const std::vector<Shard>& shards,
                  Report* report) {
  double seconds = 0.0;
  std::int64_t windows = 0;
  for (const Shard& shard : shards) {
    const Encoded e = EncodeShard(codec, shard);
    if (e.bytes != shard.archive) {
      report->Fail("repeated sz encodes wrote different archives");
    }
    seconds += e.seconds;
    windows += e.windows;
  }
  return static_cast<double>(windows) / seconds;
}

// One reference scan: direct schedulers (cache off) read every variable of
// every shard whole. With `record` the decode becomes the reference every
// served response must equal; otherwise it must match the reference.
// Returns windows per second of the pass.
double ScanPass(const std::vector<std::unique_ptr<serve::DecodeScheduler>>&
                    direct,
                std::vector<Shard>& shards, bool record, Report* report) {
  const std::int64_t plane = kSide * kSide;
  const double t0 = Now();
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::int64_t v = 0; v < kVariables; ++v) {
      const Tensor got = direct[s]->Get(v, 0, kFrames);
      float* ref = shards[s].reference.data() + v * kFrames * plane;
      if (record) {
        std::copy_n(got.data(), got.numel(), ref);
      } else if (std::memcmp(got.data(), ref, got.numel() * sizeof(float)) !=
                 0) {
        report->Fail("repeated sz scans decoded different bytes");
      }
    }
  }
  return static_cast<double>(kShards * kVariables * kFrames / kWindow) /
         (Now() - t0);
}

}  // namespace

void RunSzServe(const RunOptions& options, Report* report) {
  api::CodecOptions codec_options;
  codec_options.window = kWindow;
  auto codec = api::Compressor::Create("sz", codec_options);
  SpanLog setup_log;
  TracingCompressor setup_codec(codec.get(), &setup_log);

  std::vector<Shard> shards(kShards);
  std::vector<double> setup_s, write_s;
  std::uint64_t archive_bytes = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    const double t0 = Now();
    double write_seconds = 0.0;
    archive_bytes = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      Shard& shard = shards[s];
      shard.reader.reset();
      glsc::data::FieldSpec spec;
      spec.variables = kVariables;
      spec.frames = kFrames;
      spec.height = kSide;
      spec.width = kSide;
      spec.seed = options.seed * 1000003ull + s;
      shard.field = glsc::data::GenerateTurbulence(spec);
      shard.path = options.workdir + "/sz-shard" + std::to_string(s) + ".glsca";

      Encoded e = EncodeShard(options.trace ? &setup_codec : codec.get(),
                              shard);
      const double w0 = Now();
      glsc::WriteFileBytes(shard.path, e.bytes);
      write_seconds += e.serialize_seconds + (Now() - w0);
      archive_bytes += std::filesystem::file_size(shard.path);
      shard.archive = std::move(e.bytes);
      shard.reader.emplace(core::ArchiveReader::FromFile(shard.path));
    }
    setup_s.push_back(Now() - t0);
    write_s.push_back(write_seconds);
  }

  // Reference decode, untimed: every served range must equal it. A first
  // re-encode checks that encoding repeats.
  std::vector<std::unique_ptr<serve::DecodeScheduler>> direct;
  for (Shard& shard : shards) {
    direct.push_back(std::make_unique<serve::DecodeScheduler>(
        &*shard.reader, codec.get(), ShardSchedule(0)));
    shard.reference = Tensor::Empty({kVariables, kFrames, kSide, kSide});
  }
  ScanPass(direct, shards, /*record=*/true, report);
  EncodePass(codec.get(), shards, report);
  const std::int64_t plane = kSide * kSide;
  double sq_err = 0.0, lo = INFINITY, hi = -INFINITY, worst = 0.0;
  std::int64_t count = 0;
  for (const Shard& shard : shards) {
    const float* x = shard.field.data();
    const float* y = shard.reference.data();
    for (std::int64_t f = 0; f < kVariables * kFrames; ++f) {
      const glsc::data::FrameNorm norm =
          glsc::data::ComputeFrameNorm(x + f * plane, plane);
      for (std::int64_t k = 0; k < plane; ++k) {
        const double d = static_cast<double>(x[f * plane + k]) - y[f * plane + k];
        sq_err += d * d;
        worst = std::max(worst, std::abs(d) / (kRelBound * norm.range));
        lo = std::min<double>(lo, x[f * plane + k]);
        hi = std::max<double>(hi, x[f * plane + k]);
      }
    }
    count += kVariables * kFrames * plane;
  }
  report->Note("worst sz pointwise error = " + std::to_string(worst) +
               " x bound");
  if (!(worst <= 1.0 + kBoundSlack)) {
    report->Fail("sz decode misses its pointwise relative bound (" +
                 std::to_string(worst) + " x bound)");
  }

  const std::size_t segments = static_cast<std::size_t>(
      std::max(2.0, std::round(options.seconds / kSegmentSeconds)));
  const double segment_s = options.seconds / static_cast<double>(segments);
  const std::size_t open_per_segment = static_cast<std::size_t>(
      std::max(1.0, kOpenLoopQps * kOpenShare * segment_s));
  const std::vector<Request> open =
      MakeRequests(Spec(), options.seed, open_per_segment * segments);
  const std::vector<Request> pool = MakeRequests(Spec(), options.seed + 1,
                                                 20000);
  std::size_t cursor = kWarmRequests;

  // The traced run serves through the timing decorator and alternates its
  // closed-loop pieces with an untraced manager over the same shards.
  SpanLog log;
  TracingCompressor traced_codec(codec.get(), &log);
  serve::ShardManager manager(
      Specs(shards, options.trace ? &traced_codec : codec.get(),
            kCacheWindows),
      Manager());
  WarmUp(&manager, pool);
  std::optional<serve::ShardManager> plain;
  if (options.trace) {
    plain.emplace(Specs(shards, codec.get(), kCacheWindows), Manager());
    WarmUp(&*plain, pool);
  }
  log.Clear();

  std::vector<Completion> completions;
  std::int64_t queue_depth_max = 0;
  std::size_t mismatches = 0;
  double open_hits = 0.0, open_decoded = 0.0;
  std::uint64_t stored = 0, raw = 0;
  std::vector<double> closed_qps, plain_qps, traced_qps, scan_wps, encode_wps;
  const auto closed = [&](serve::ShardManager* target, double seconds,
                          std::vector<double>* qps) {
    const ClosedResult c =
        RunClosedLoop(target, shards, pool, &cursor, seconds);
    report->attempted += c.attempted;
    report->failed += c.failed;
    mismatches += c.mismatches;
    qps->push_back(c.qps);
  };
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const serve::ServeStats s0 = manager.Stats();
    const std::uint64_t stored0 = StoredBytes(shards);
    const std::uint64_t raw0 = RawBytes(shards);
    const LoadResult r = RunOpenLoop(
        &manager, shards,
        Slice(open, seg * open_per_segment, (seg + 1) * open_per_segment),
        options.trace);
    const serve::ServeStats s1 = manager.Stats();
    stored += StoredBytes(shards) - stored0;
    raw += RawBytes(shards) - raw0;
    open_hits += static_cast<double>(s1.cache_hits - s0.cache_hits);
    open_decoded += static_cast<double>(s1.decoded_records - s0.decoded_records);
    completions.insert(completions.end(), r.completions.begin(),
                       r.completions.end());
    queue_depth_max = std::max(queue_depth_max, r.queue_depth_max);
    mismatches += r.mismatches;

    const double closed_s = kClosedShare * segment_s;
    if (options.trace) {
      closed(&*plain, closed_s / 2.0, &plain_qps);
      closed(&manager, closed_s / 2.0, &traced_qps);
      continue;
    }
    closed(&manager, closed_s, &closed_qps);
    const double scan_stop = Now() + kScanShare * segment_s;
    do {
      scan_wps.push_back(ScanPass(direct, shards, /*record=*/false, report));
    } while (Now() < scan_stop);
    const double encode_stop =
        Now() + (1.0 - kOpenShare - kClosedShare - kScanShare) * segment_s;
    do {
      encode_wps.push_back(EncodePass(codec.get(), shards, report));
    } while (Now() < encode_stop);
  }

  const LatencySummary latency = SummarizeOpenLoop(completions);
  report->attempted += static_cast<std::int64_t>(open.size());
  report->failed += static_cast<std::int64_t>(latency.failed);
  // The latency tail is reported by the traced run only: on a shared host,
  // vCPU stalls decide which ~1% of requests are slow, and the p99 moved by
  // ~90% (interquartile share) across ten seeds where p50 moved ~16%.
  const TailPoint tail = TailPercentile(latency.latency_ms, 99.0);
  report->Note("fetch tail: p" + std::to_string(tail.percentile) + " = " +
               std::to_string(tail.value) + " ms of " +
               std::to_string(tail.samples) + " requests (" +
               std::to_string(tail.beyond) + " beyond)");
  const TailPoint late = TailPercentile(latency.lateness_ms, 99.0);
  report->Note("open loop: " + std::to_string(open.size()) + " requests at " +
               std::to_string(kOpenLoopQps) + "/s in " +
               std::to_string(segments) + " segments; generator lateness p50 " +
               std::to_string(Median(latency.lateness_ms)) + " ms, p" +
               std::to_string(late.percentile) + " " +
               std::to_string(late.value) + " ms");

  if (!options.trace) {
    std::string per_segment;
    for (const double q : closed_qps) {
      if (!per_segment.empty()) per_segment += ' ';
      per_segment += std::to_string(q);
    }
    report->Note("closed-loop req/s per segment: " + per_segment);
    report->Set("fetch_p50_ms", Median(latency.latency_ms), "ms");
    report->Set("fetch_saturation_qps", Median(closed_qps), "req/s");
    report->Set("scan_windows_per_s", Median(scan_wps), "windows/s");
    report->Set("scan_nrmse", std::sqrt(sq_err / count) / (hi - lo),
                "frac_of_range");
    report->Set("encode_windows_per_s", Median(encode_wps), "windows/s");
    std::uint64_t field_bytes = 0;
    for (const Shard& s : shards) {
      field_bytes += static_cast<std::uint64_t>(s.field.numel()) * sizeof(float);
    }
    report->Set("compression_ratio",
                static_cast<double>(field_bytes) /
                    static_cast<double>(archive_bytes),
                "ratio");
    report->Set("setup_s", Median(setup_s), "s");
  } else {
    report->Set("trace.overhead_share",
                Median(plain_qps) / Median(traced_qps) - 1.0, "ratio");
    const double requests = static_cast<double>(open.size());
    const serve::ServeStats stats = manager.Stats();
    const SpanTotals decode = Totals(log.Snapshot(), SpanKind::kDecompress);
    report->Set("serve.shard_manager.latency_p99_ms", tail.value, "ms");
    report->Set("serve.shard_manager.queue_depth_max",
                static_cast<double>(queue_depth_max), "count");
    report->Set("serve.shard_manager.shed",
                static_cast<double>(stats.shed_queue_full), "count");
    report->Set("serve.shard_manager.retries",
                static_cast<double>(stats.retries), "count");
    report->Set("serve.decode_scheduler.hit_ratio",
                open_hits + open_decoded > 0
                    ? open_hits / (open_hits + open_decoded)
                    : 0.0,
                "ratio");
    report->Set("serve.decode_scheduler.decoded_records",
                open_decoded / requests, "records/req");
    report->Set("serve.decode_scheduler.batch_records_mean",
                decode.WindowsPerCall(), "records");
    report->Set("api.codec.decompress_ms_per_window", decode.MsPerWindow(),
                "ms");
    report->Set("api.codec.compress_ms_per_window",
                Totals(setup_log.Snapshot(), SpanKind::kCompress).MsPerWindow(),
                "ms");
    report->Set("core.archive_reader.stored_mb",
                static_cast<double>(stored) / kMiB / requests, "MB/req");
    report->Set("core.archive_reader.decoded_mb",
                static_cast<double>(raw) / kMiB / requests, "MB/req");
    report->Set("core.container.write_ms", Median(write_s) * 1e3, "ms");
    report->Set("loadgen.lateness_ms_p99", late.value, "ms");

    report->Set("serve.shard_manager.overhead_us_p50",
                ManagerOverheadUs(shards, codec.get(), pool, &mismatches), "us");

    // Scheduler self time and stage coverage on cache misses: a bare traced
    // scheduler with the cache off, one caller. Stages = codec spans plus
    // the replayed per-record payload read.
    const ReaderReplay reader_replay =
        ReplayReader(*shards[0].reader, shards[0].path, 3);
    ReportMissReplay(shards, codec.get(), pool, reader_replay, report);
    ReportReaderReplay(reader_replay, report);
    report->Set("tensor.workspace.steady_slab_allocations",
                static_cast<double>(reader_replay.steady_slab_allocations),
                "count");
    report->Set("tensor.workspace.peak_mb", reader_replay.workspace_peak_mb,
                "MB");
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " served ranges differ from the direct scheduler decode");
  }
}

}  // namespace perfbench

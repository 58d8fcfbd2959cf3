// glsc_perfbench: runs one benchmark workload and prints its metrics.
//
//   glsc_perfbench --workload glsc-scan|sz-serve|glsc-encode --seed N
//                  --seconds S --trace 0|1 --model PATH --workdir DIR
//
// Output: a "fingerprint {...}" line, "note: ..." lines, and as the LAST line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (a layer the workload never calls reports 0). A failed
// output check prints the reason on stderr, reports no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks every run against it).
constexpr MetricDef kEndToEnd[] = {
    {"scan_windows_per_s", "windows/s"}, {"scan_nrmse", "frac_of_range"},
    {"encode_windows_per_s", "windows/s"}, {"compression_ratio", "ratio"},
    {"fetch_p50_ms", "ms"},              {"fetch_saturation_qps", "req/s"},
    {"setup_s", "s"},                    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.shard_manager.overhead_us_p50", "us"},
    {"serve.shard_manager.queue_depth_max", "count"},
    {"serve.shard_manager.shed", "count"},
    {"serve.shard_manager.retries", "count"},
    {"serve.shard_manager.latency_p99_ms", "ms"},
    {"serve.decode_scheduler.hit_ratio", "ratio"},
    {"serve.decode_scheduler.decoded_records", "records/req"},
    {"serve.decode_scheduler.batch_records_mean", "records"},
    {"serve.decode_scheduler.self_ms", "ms/req"},
    {"api.codec.decompress_ms_per_window", "ms"},
    {"api.codec.compress_ms_per_window", "ms"},
    {"core.archive_reader.read_ms_per_record", "ms"},
    {"core.archive_reader.stored_mb", "MB/req"},
    {"core.archive_reader.decoded_mb", "MB/req"},
    {"core.filters.decode_gb_per_s", "GB/s"},
    {"core.filters.select_ms_per_record", "ms"},
    {"core.filters.stored_over_raw", "ratio"},
    {"core.container.write_ms", "ms"},
    {"codec.entropy_decode_ms_per_window", "ms"},
    {"compress.vae_decode_ms_per_window", "ms"},
    {"compress.vae_encode_ms_per_window", "ms"},
    {"diffusion.sampler_ms_per_window", "ms"},
    {"diffusion.unet_ms_per_step", "ms"},
    {"postprocess.pca_apply_ms_per_window", "ms"},
    {"postprocess.pca_correct_ms_per_window", "ms"},
    {"postprocess.correction_bytes_share", "ratio"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.gemm_roof_gflops", "GFLOP/s"},
    {"tensor.im2col_gb_per_s", "GB/s"},
    {"nn.attention_ms_per_call", "ms"},
    {"tensor.workspace.steady_slab_allocations", "count"},
    {"tensor.workspace.peak_mb", "MB"},
    {"loadgen.lateness_ms_p99", "ms"},
    {"trace.overhead_share", "ratio"},
    {"trace.unaccounted_share", "ratio"},
};

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument " + key);
    }
    key = key.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      throw std::runtime_error("missing value for --" + key);
    }
  }
  return args;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    const auto args = ParseArgs(argc, argv);
    options.workload = Get(args, "workload");
    options.seed = std::stoull(Get(args, "seed"));
    options.seconds = std::stod(Get(args, "seconds"));
    options.trace = Get(args, "trace") == "1";
    options.model_path = Get(args, "model");
    options.workdir = Get(args, "workdir");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("fingerprint %s\n", perfbench::FingerprintJson().c_str());
  std::fflush(stdout);
  Report report;
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "glsc-scan") {
      perfbench::RunGlscScan(options, &report);
    } else if (options.workload == "glsc-encode") {
      perfbench::RunGlscEncode(options, &report);
    } else if (options.workload == "sz-serve") {
      perfbench::RunSzServe(options, &report);
    } else {
      std::fprintf(stderr, "error: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("workload threw: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(options.workdir, ec);

  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) + " operations failed");
  }
  if (!options.trace) {
    report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    for (const MetricDef& m : kEndToEnd) {
      if (!report.Has(m.name)) {
        report.Fail(std::string("workload did not measure ") + m.name);
      }
    }
  } else {
    std::string idle;
    for (const MetricDef& m : kPerLayer) {
      if (report.Has(m.name)) continue;
      report.Set(m.name, 0.0, m.unit);
      idle += std::string(idle.empty() ? "" : ", ") + m.name;
    }
    if (!idle.empty()) report.Note("not exercised by this workload: " + idle);
  }
  for (const std::string& note : report.notes()) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}

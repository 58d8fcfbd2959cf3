// Run options, the metric report every workload fills, and the host
// fingerprint printed with every run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;  // pinned GLSC weights
  std::string workdir;     // scratch for archives written by the run
};

class Report {
 public:
  // Records one metric. A non-finite value makes the run incorrect: every
  // reported number must be a measurement.
  void Set(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect; the reason goes to stderr and no metrics are
  // reported.
  void Fail(const std::string& reason);
  void Note(const std::string& line);

  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

  // Operation counts: Gets sent / windows encoded, and how many failed.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // The result line: {"correct", "attempted", "failed", "metrics"}. Metrics
  // are omitted when the run is incorrect.
  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

// Host fingerprint as one JSON object: CPU model (CPUID brand string), online
// CPUs, L2/L3 sizes, the SIMD level the kernel dispatcher selected, compiler
// and build type. Runs are comparable only on equal fingerprints.
std::string FingerprintJson();

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Monotonic seconds since an arbitrary process-wide origin.
double Now();

}  // namespace perfbench

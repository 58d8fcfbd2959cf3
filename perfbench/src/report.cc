#include "report.h"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "tensor/simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuBrand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    return;
  }
  metrics_[name] = Metric{value, unit};
}

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  if (correct()) {
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
          << JsonNumber(metric.value) << ", \"unit\": "
          << JsonString(metric.unit) << "}";
      first = false;
    }
  }
  out << "}}";
  return out.str();
}

std::string FingerprintJson() {
  std::ostringstream out;
  out << "{\"cpu\": " << JsonString(CpuBrand())
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
      << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
      << ", \"simd\": "
      << JsonString(glsc::simd::IsaName(glsc::simd::ActiveIsa()))
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

}  // namespace perfbench

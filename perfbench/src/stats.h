// Summary statistics and the result record the benchmark prints.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "privim/common/status.h"
#include "privim/serve/json.h"

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary fixed epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A metric name: starts with a letter or digit, at most 64 characters,
/// each a letter, digit, '_', '.' or '-'.
bool IsValidMetricName(std::string_view name);

/// Nearest-rank percentile: the smallest sample such that at least
/// q * 100 percent of the samples are <= it (q in [0, 1]; q = 0 gives the
/// minimum). 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// Peak resident set size (VmHWM) of this process in MiB.
double PeakRssMb();

/// Returns freed heap memory to the system and restarts the peak at the
/// current resident size, so PeakRssMb() covers only what runs after.
void ResetPeakRss();

/// Named metrics with units, in insertion order. Names are validated and
/// may be set once.
class MetricSet {
 public:
  privim::Status Add(const std::string& name, double value,
                     const std::string& unit);
  /// {"name":{"value":v,"unit":"u"},...}
  privim::serve::JsonValue ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::set<std::string> names_;
};

/// Per-name duration samples recorded around calls into a layer.
class Spans {
 public:
  /// Times fn() and records its duration in seconds under `name`.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const double start = NowSeconds();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      samples_[name].push_back(NowSeconds() - start);
    } else {
      auto result = fn();
      samples_[name].push_back(NowSeconds() - start);
      return result;
    }
  }
  void Record(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }
  /// Samples for `name` (empty when never recorded).
  const std::vector<double>& Samples(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

#include "stats.h"

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>

#include "privim/common/mem_stats.h"

namespace perfbench {

using privim::Status;
using privim::serve::JsonValue;

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double s : samples) total += s;
  return total;
}

double Mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : Sum(samples) / static_cast<double>(samples.size());
}

double PeakRssMb() {
  return static_cast<double>(privim::ReadMemStats().hwm_bytes) /
         (1024.0 * 1024.0);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // VmHWM := VmRSS
}

Status MetricSet::Add(const std::string& name, double value,
                      const std::string& unit) {
  if (!IsValidMetricName(name)) {
    return Status::InvalidArgument("bad metric name \"" + name + "\"");
  }
  if (!names_.insert(name).second) {
    return Status::InvalidArgument("metric \"" + name + "\" set twice");
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("metric \"" + name + "\" is not finite");
  }
  entries_.push_back({name, value, unit});
  return Status::OK();
}

JsonValue MetricSet::ToJson() const {
  JsonValue out = JsonValue::Object();
  for (const Entry& entry : entries_) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Number(entry.value));
    metric.Set("unit", JsonValue::Str(entry.unit));
    out.Set(entry.name, std::move(metric));
  }
  return out;
}

const std::vector<double>& Spans::Samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

}  // namespace perfbench

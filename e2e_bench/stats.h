// Sample statistics and the metric table shared by the benchmark's files.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace e2e {

using msh::f64;
using msh::i64;

/// Samples a percentile needs past it before it is reported.
inline constexpr i64 kMinBeyond = 10;

/// Nearest-rank percentile of the benchmark's own samples; `beyond`
/// counts the samples past it.
struct Percentile {
  f64 value = 0.0;
  i64 samples = 0;
  i64 beyond = 0;
};

inline Percentile percentile(std::vector<f64> v, f64 p) {
  Percentile out;
  out.samples = static_cast<i64>(v.size());
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const i64 rank = std::max<i64>(
      1, static_cast<i64>(std::ceil(p / 100.0 * static_cast<f64>(v.size()))));
  out.value = v[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  return out;
}

inline f64 median(std::vector<f64> v) {
  return percentile(std::move(v), 50.0).value;
}

/// Metric name -> (value, unit), as printed in the result line.
using Metrics = std::map<std::string, std::pair<f64, std::string>>;

}  // namespace e2e

// Span recorder for the benchmark's traced runs. Spans are recorded by
// the benchmark's own code around its calls into the system (submit,
// reply, lane rounds, set-up steps, per-layer probes), kept in memory,
// and written out once at the end as Chrome trace-event JSON
// (chrome://tracing, Perfetto). A disabled recorder records nothing.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace e2e {

using msh::f64;
using msh::i64;

struct Span {
  std::string name;
  const char* layer = "";  ///< module the span belongs to (trace "cat")
  i64 tid = 0;
  f64 start_us = 0.0;
  f64 end_us = 0.0;
  i64 request = -1;  ///< request id shared by one request's spans
  i64 parent = -1;   ///< index of the causing span, -1 for roots
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records [start_us, end_us] (monotonic_now_us clock) and returns the
  /// span's index for use as a parent; -1 when disabled.
  i64 record(std::string name, const char* layer, f64 start_us, f64 end_us,
             i64 request = -1, i64 parent = -1);

  i64 size() const;

  /// Writes every span as a complete ("X") trace event.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace e2e

// Shared pieces of the six serving benches (throughput, chaos, overload,
// train-while-serve, power outage, endurance): command-line parsing, the
// served model + synthetic task fixture, the closed-loop capacity probe,
// the seeded Poisson open-loop driver, the reply-status tally, the
// acceptance gate and bit-pattern tensor equality. Everything here was
// shared verbatim by at least two benches; bench-specific loops stay in
// the benches.
#pragma once

#include <array>
#include <functional>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "runtime/continual/continual_learner.h"
#include "workloads/dataset.h"

namespace msh::bench {

/// Command line `[--smoke] [--flag VALUE]... [seed] [extra...]`. Flags
/// and positionals may interleave. An unknown flag, a missing flag value,
/// too many positionals, a malformed number or a non-positive count/rate
/// prints the usage line to stderr and exits 2.
class Args {
 public:
  /// `usage` is the text after "usage: "; `max_positionals` counts the
  /// seed; `value_flags` lists the flags that take one value.
  Args(int argc, char** argv, std::string usage, i64 max_positionals,
       std::initializer_list<const char*> value_flags = {});

  bool smoke() const { return smoke_; }
  /// Positional 0; 42 when absent.
  u64 seed() const;
  /// Positional `index` as a positive count (i64) or rate (f64), or
  /// `fallback` when absent.
  template <typename T>
  T positive(i64 index, T fallback) const;
  /// Value of a value flag, or "" when absent.
  std::string flag(const std::string& name) const;

  /// Prints the usage line (and `why`, when given) and exits 2.
  [[noreturn]] void usage_error(const std::string& why = "") const;

 private:
  std::string usage_;
  bool smoke_ = false;
  std::vector<std::string> positionals_;
  std::vector<std::pair<std::string, std::string>> flags_;
};

/// The served 4-class 12x12 synthetic task and the 8-channel {8, 16}
/// RepNet every serving bench deploys, both seeded by `seed`.
/// `test_per_class` is 16 for the plain serving benches and 12 for the
/// continual-lane benches.
struct ServingFixture {
  ServingFixture(u64 seed, i32 test_per_class);

  u64 seed;
  SyntheticSpec spec;
  TrainTestSplit data;
  RepNetModel model;
};

/// ServingFixture for the continual-lane benches: the served backbone is
/// frozen (on-device learning setup), and the lane adapts a separate
/// trainer model (seeded `seed + 1`) to a drifted task with the same
/// classes and new prototypes.
struct LaneFixture : ServingFixture {
  explicit LaneFixture(u64 seed);

  /// The lane's training stream over the drifted task.
  TaskStream task_stream() const;
  /// The lane settings every lane bench shares; benches add their round
  /// budget, duty cycle or poisoned round on top.
  ContinualLearnerOptions lane_options() const;

  SyntheticSpec adapt_spec;
  TrainTestSplit adapt;
  RepNetModel trainer_model;
};

/// Two workers, a 256-deep queue and 4-row batches with a 200 us wait.
ServingEngineOptions two_worker_options();

/// Closed loop: keeps `window` single-image requests (image i of `pool`
/// for request i) in flight until `total` complete; returns seconds.
f64 run_closed_loop(ServingEngine& engine, const Dataset& pool, i64 total,
                    i64 window);

/// What an engine with `options` sustains on this host (and under
/// whatever sanitizer is active): a closed loop of `total` requests from
/// `pool`, two in flight per worker, on a throwaway probe engine.
f64 measure_capacity_rps(ServingFixture& fx,
                         const ServingEngineOptions& options,
                         const Dataset& pool, i64 total);

/// Seeded Poisson arrival clock: each wait_next() draws one exponential
/// gap from `rng` and spins until that arrival time (sub-millisecond
/// gaps: a spin keeps the trace faithful).
class PoissonArrivals {
 public:
  PoissonArrivals(Rng& rng, f64 rate_rps) : rng_(rng), rate_rps_(rate_rps) {}

  void wait_next();
  /// Microseconds since construction.
  f64 elapsed_us() const { return clock_.elapsed_us(); }

 private:
  Rng& rng_;
  f64 rate_rps_;
  f64 next_arrival_us_ = 0.0;
  Stopwatch clock_;
};

/// Runs just before arrival `i` is submitted; may set its options.
using ArrivalHook = std::function<void(i64 i, SubmitOptions& submit)>;

/// Open loop: `total` Poisson arrivals at `rate_rps`, arrival i submitting
/// image i of `pool`. A full queue rejects, exactly as a front-end load
/// balancer would see it. Returns the futures in arrival order.
std::vector<ResponseFuture> run_poisson(ServingEngine& engine,
                                        const Dataset& pool, i64 total,
                                        f64 rate_rps, Rng& rng,
                                        const ArrivalHook& on_arrival = {});

/// Replies counted by status.
class StatusTally {
 public:
  void add(RequestStatus status) { ++counts_[static_cast<size_t>(status)]; }
  i64 count(RequestStatus status) const {
    return counts_[static_cast<size_t>(status)];
  }
  i64 total() const {
    return std::accumulate(counts_.begin(), counts_.end(), i64{0});
  }
  /// Replies with any status outside `expected`.
  i64 other_than(std::initializer_list<RequestStatus> expected) const {
    i64 other = total();
    for (const RequestStatus status : expected) other -= count(status);
    return other;
  }

 private:
  std::array<i64, static_cast<size_t>(RequestStatus::kPowerLoss) + 1>
      counts_{};
};

/// Acceptance gate: every failed check prints one "FAILED: ..." line.
class Gate {
 public:
  /// Records a failure unless `ok`; returns `ok`.
  bool check(bool ok, const char* format, ...)
      __attribute__((format(printf, 3, 4)));
  bool passed() const { return passed_; }
  /// 0 when every check passed, else 1.
  int exit_code() const { return passed_ ? 0 : 1; }

 private:
  bool passed_ = true;
};

/// Same shape and bit-identical elements (-0.0 differs from +0.0).
bool bit_equal(const Tensor& a, const Tensor& b);

}  // namespace msh::bench

#include "harness.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

#include "workloads/task_suite.h"

namespace msh::bench {
namespace {

/// Strict number parse: the whole text, no sign on unsigned types.
template <typename T>
T parse_number(const Args& args, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty())
    args.usage_error("not a number: '" + text + "'");
  return value;
}

SyntheticSpec served_spec(u64 seed, i32 test_per_class) {
  SyntheticSpec spec;
  spec.name = "serving";
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = test_per_class;
  spec.image_size = 12;
  spec.seed = seed;
  return spec;
}

RepNetModel served_model(u64 seed) {
  BackboneConfig backbone;
  backbone.stem_channels = 8;
  backbone.stage_channels = {8, 16};
  backbone.blocks_per_stage = {1, 1};
  backbone.stage_strides = {1, 2};
  Rng rng(seed);
  return RepNetModel(
      backbone, RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8},
      4, rng);
}

SyntheticSpec drifted_spec(const SyntheticSpec& served, u64 seed) {
  SyntheticSpec spec = adaptation_task_spec(served, seed + 300);
  spec.train_per_class = 20;
  return spec;
}

}  // namespace

Args::Args(int argc, char** argv, std::string usage, i64 max_positionals,
           std::initializer_list<const char*> value_flags)
    : usage_(std::move(usage)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg.starts_with("--")) {
      if (std::none_of(value_flags.begin(), value_flags.end(),
                       [&](const char* f) { return arg == f; }))
        usage_error("unknown flag '" + arg + "'");
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      flags_.emplace_back(arg, argv[++i]);
    } else {
      positionals_.push_back(arg);
    }
  }
  if (static_cast<i64>(positionals_.size()) > max_positionals)
    usage_error("too many arguments");
}

u64 Args::seed() const {
  return positionals_.empty() ? 42
                              : parse_number<u64>(*this, positionals_[0]);
}

template <typename T>
T Args::positive(i64 index, T fallback) const {
  const size_t at = static_cast<size_t>(index);
  if (at >= positionals_.size()) return fallback;
  const T value = parse_number<T>(*this, positionals_[at]);
  if (!(value > 0) || !std::isfinite(static_cast<f64>(value)))
    usage_error("'" + positionals_[at] + "' must be a positive number");
  return value;
}

template i64 Args::positive(i64, i64) const;
template f64 Args::positive(i64, f64) const;

std::string Args::flag(const std::string& name) const {
  for (const auto& [flag, value] : flags_)
    if (flag == name) return value;
  return "";
}

void Args::usage_error(const std::string& why) const {
  std::fprintf(stderr, "usage: %s\n", usage_.c_str());
  if (!why.empty()) std::fprintf(stderr, "%s\n", why.c_str());
  std::exit(2);
}

ServingFixture::ServingFixture(u64 seed, i32 test_per_class)
    : seed(seed),
      spec(served_spec(seed, test_per_class)),
      data(make_synthetic_dataset(spec)),
      model(served_model(seed)) {}

LaneFixture::LaneFixture(u64 seed)
    : ServingFixture(seed, 12),
      adapt_spec(drifted_spec(spec, seed)),
      adapt(make_synthetic_dataset(adapt_spec)),
      trainer_model(served_model(seed + 1)) {
  model.backbone().set_trainable(false);
}

TaskStream LaneFixture::task_stream() const {
  return TaskStream(make_synthetic_dataset(adapt_spec), seed + 7);
}

ContinualLearnerOptions LaneFixture::lane_options() const {
  ContinualLearnerOptions lane;
  lane.seed = seed;
  lane.batch = 8;
  lane.steps_per_round = 6;
  lane.rep_lr = 0.02f;
  lane.head_lr = 0.15f;
  lane.min_accuracy_gain = 0.01;
  lane.rollback_margin = 0.05;
  lane.holdout_batch = 16;
  lane.swap.worker_timeout_us = 120e6;  // sanitizer headroom
  return lane;
}

ServingEngineOptions two_worker_options() {
  ServingEngineOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.batcher = {.max_batch_rows = 4, .max_wait_us = 200.0};
  return options;
}

f64 run_closed_loop(ServingEngine& engine, const Dataset& pool, i64 total,
                    i64 window) {
  const Stopwatch watch;
  std::deque<ResponseFuture> inflight;
  i64 submitted = 0;
  while (submitted < total || !inflight.empty()) {
    while (submitted < total && static_cast<i64>(inflight.size()) < window) {
      inflight.push_back(
          engine.submit(pool.batch_images(submitted % pool.size(), 1)));
      ++submitted;
    }
    inflight.front().get();
    inflight.pop_front();
  }
  return watch.elapsed_s();
}

f64 measure_capacity_rps(ServingFixture& fx,
                         const ServingEngineOptions& options,
                         const Dataset& pool, i64 total) {
  ServingEngine probe(fx.model, fx.data.train, options);
  return static_cast<f64>(total) /
         run_closed_loop(probe, pool, total, 2 * options.workers);
}

void PoissonArrivals::wait_next() {
  next_arrival_us_ += -std::log(1.0 - rng_.uniform()) / rate_rps_ * 1e6;
  while (clock_.elapsed_us() < next_arrival_us_) std::this_thread::yield();
}

std::vector<ResponseFuture> run_poisson(ServingEngine& engine,
                                        const Dataset& pool, i64 total,
                                        f64 rate_rps, Rng& rng,
                                        const ArrivalHook& on_arrival) {
  PoissonArrivals arrivals(rng, rate_rps);
  std::vector<ResponseFuture> futures;
  futures.reserve(static_cast<size_t>(total));
  for (i64 i = 0; i < total; ++i) {
    arrivals.wait_next();
    SubmitOptions submit;
    if (on_arrival) on_arrival(i, submit);
    futures.push_back(
        engine.submit(pool.batch_images(i % pool.size(), 1), submit));
  }
  return futures;
}

bool Gate::check(bool ok, const char* format, ...) {
  if (ok) return true;
  passed_ = false;
  std::printf("FAILED: ");
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  return false;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  for (i64 i = 0; i < a.numel(); ++i)
    if (std::bit_cast<u32>(a[i]) != std::bit_cast<u32>(b[i])) return false;
  return true;
}

}  // namespace msh::bench

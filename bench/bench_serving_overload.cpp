// Overload benchmark for the priority-aware serving runtime: a seeded
// open-loop ramp past saturation, with a zero-downtime model swap rolled
// through mid-overload. The engine's measured capacity (closed-loop
// warm-up on this host, under whatever sanitizer is active) calibrates
// the ramp, so the trace stresses the same relative operating points
// everywhere: phase A offers 0.5x capacity, phase B offers 2x.
//
// Offered traffic is 25% interactive / 25% batch / 50% best-effort, each
// class with a deadline. Overload control must hold interactive goodput
// while the surplus is shed from the bottom of the priority order.
//
// Exit code is the acceptance gate:
//   - no request ever resolves kFailed (the swap fails nobody),
//   - the mid-ramp swap_model completes and post-swap outputs are
//     bit-identical to a fresh deploy of the same image,
//   - interactive goodput under 2x overload stays >= 90% of its
//     pre-saturation value,
//   - best-effort drops at a rate >= interactive (sheds first).
//   usage: bench_serving_overload [--smoke] [seed]
#include <array>
#include <cstdio>
#include <string>
#include <thread>

#include "common/table.h"
#include "harness.h"

namespace msh {
namespace {

/// Class mix by arrival index: i % 4 -> interactive, batch, best-effort,
/// best-effort (exact 25/25/50 split).
Priority class_of(i64 arrival) {
  static constexpr Priority kMix[4] = {
      Priority::kInteractive, Priority::kBatch, Priority::kBestEffort,
      Priority::kBestEffort};
  return kMix[arrival % 4];
}

struct ClassTally : bench::StatusTally {
  i64 dropped() const {
    return count(RequestStatus::kShed) + count(RequestStatus::kRejected) +
           count(RequestStatus::kTimedOut);
  }
  i64 failed() const {
    return other_than({RequestStatus::kOk, RequestStatus::kShed,
                       RequestStatus::kRejected, RequestStatus::kTimedOut});
  }
  /// Share of this class's submitted requests.
  f64 share(i64 n) const {
    return total() == 0 ? 0.0
                        : static_cast<f64>(n) / static_cast<f64>(total());
  }
  f64 goodput() const { return share(count(RequestStatus::kOk)); }
};

using PhaseResult = std::array<ClassTally, kPriorityClasses>;

/// One open-loop Poisson phase in the class mix, each class with its
/// deadline; `on_arrival` (if set) also runs at every arrival.
PhaseResult run_phase(ServingEngine& engine, const Dataset& pool, i64 total,
                      f64 rate_rps,
                      const std::array<f64, kPriorityClasses>& deadlines_us,
                      Rng& rng,
                      const std::function<void(i64)>& on_arrival = {}) {
  const auto submit_in_mix = [&](i64 i, SubmitOptions& submit) {
    if (on_arrival) on_arrival(i);
    submit.priority = class_of(i);
    submit.deadline_us = deadlines_us[static_cast<size_t>(submit.priority)];
  };
  std::vector<ResponseFuture> futures =
      bench::run_poisson(engine, pool, total, rate_rps, rng, submit_in_mix);
  PhaseResult result;
  for (i64 i = 0; i < total; ++i)
    result[static_cast<size_t>(class_of(i))].add(
        futures[static_cast<size_t>(i)].get().status);
  return result;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  const bench::Args args(argc, argv, "bench_serving_overload [--smoke] [seed]",
                         1);
  const u64 seed = args.seed();
  const bool smoke = args.smoke();
  const i64 warmup = smoke ? 24 : 48;
  const i64 total_a = smoke ? 48 : 160;
  const i64 total_b = smoke ? 96 : 320;

  bench::ServingFixture fx(seed, /*test_per_class=*/16);

  // A warm-up probe engine measures capacity; the ramp engine's overload
  // policy is calibrated from it.
  ServingEngineOptions options = bench::two_worker_options();
  options.max_retries = 3;
  const f64 capacity_rps =
      bench::measure_capacity_rps(fx, options, fx.data.test, warmup);
  const f64 svc_us = 1e6 * static_cast<f64>(options.workers) / capacity_rps;

  // Overload policy: best-effort is rate-limited to half of capacity and
  // budgeted to a quarter of the queue, so its 1x-capacity flood in
  // phase B cannot crowd out the higher classes.
  auto& best_effort = options.admission
                          .per_class[static_cast<size_t>(Priority::kBestEffort)];
  best_effort.rate_per_s = 0.5 * capacity_rps;
  best_effort.burst = 16.0;
  best_effort.queue_budget = options.queue_capacity / 4;

  const std::array<f64, kPriorityClasses> deadlines_us = {
      20.0 * svc_us,  // interactive: tight
      80.0 * svc_us,  // batch: relaxed
      40.0 * svc_us,  // best-effort
  };

  std::printf("=== Serving overload ramp: capacity %.0f req/s, phase A %.0f "
              "req/s x %lld, phase B %.0f req/s x %lld, seed %llu%s ===\n\n",
              capacity_rps, 0.5 * capacity_rps,
              static_cast<long long>(total_a), 2.0 * capacity_rps,
              static_cast<long long>(total_b),
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  ServingEngine engine(fx.model, fx.data.train, options);
  Rng arrival_rng(seed);
  Rng rng_a = arrival_rng.fork();
  Rng rng_b = arrival_rng.fork();

  PhaseResult phase_a = run_phase(engine, fx.data.test, total_a,
                                  0.5 * capacity_rps, deadlines_us, rng_a);

  // The image rolled through mid-overload: a fresh deployment of the
  // same trained model, exported in the on-flash format.
  auto image = std::make_shared<DeploymentImage>(
      PimRepNetExecutor(fx.model, fx.data.train, options.executor)
          .export_image());
  bool swap_ok = false;
  std::thread swap_thread;
  const auto launch_swap = [&](i64 i) {
    if (i != total_b / 3) return;
    // Launch the rolling model swap mid-overload, from another thread,
    // while arrivals keep coming. A worker only installs the incoming
    // replica between batches, and sanitizer builds stretch batch latency
    // well past the default 5 s handoff window — give each worker a
    // generous pickup budget.
    swap_thread = std::thread([&] {
      SwapOptions swap_options;
      swap_options.worker_timeout_us = 120e6;
      swap_ok = engine.swap_model(image, swap_options);
    });
  };
  PhaseResult phase_b =
      run_phase(engine, fx.data.test, total_b, 2.0 * capacity_rps, deadlines_us,
                rng_b, launch_swap);
  if (swap_thread.joinable()) swap_thread.join();

  // Post-swap output check: the engine (now serving the swapped image)
  // must match a fresh standalone deploy of that image bit-for-bit.
  const Tensor probe_images = fx.data.test.batch_images(0, 2);
  const Tensor swapped_logits = engine.submit(probe_images).get().logits;
  auto reference = PimRepNetExecutor::deploy_from_image(
      fx.model, options.executor,
      PimRepNetExecutor(fx.model, fx.data.train, options.executor).input_amax(),
      image);
  const bool outputs_identical =
      bench::bit_equal(swapped_logits, reference->forward(probe_images));

  engine.shutdown();
  const MetricsSnapshot s = engine.metrics().snapshot();

  AsciiTable table({"phase", "class", "submitted", "ok", "shed", "rejected",
                    "timed out", "failed", "goodput"});
  const auto rows = [&](const char* phase, PhaseResult& r) {
    for (i64 c = 0; c < kPriorityClasses; ++c) {
      const ClassTally& t = r[static_cast<size_t>(c)];
      table.add_row({phase, to_string(static_cast<Priority>(c)),
                     std::to_string(t.total()),
                     std::to_string(t.count(RequestStatus::kOk)),
                     std::to_string(t.count(RequestStatus::kShed)),
                     std::to_string(t.count(RequestStatus::kRejected)),
                     std::to_string(t.count(RequestStatus::kTimedOut)),
                     std::to_string(t.failed()),
                     AsciiTable::num(100.0 * t.goodput(), 1) + "%"});
    }
  };
  rows("A (0.5x)", phase_a);
  rows("B (2.0x)", phase_b);
  std::printf("%s\n", table.render().c_str());

  AsciiTable lat({"class", "completed", "p50 (ms)", "p99 (ms)"});
  for (i64 c = 0; c < kPriorityClasses; ++c) {
    const ClassCounters& cls = s.classes[static_cast<size_t>(c)];
    lat.add_row({to_string(static_cast<Priority>(c)),
                 std::to_string(cls.completed),
                 AsciiTable::num(cls.total_latency.percentile_us(50.0) / 1e3, 2),
                 AsciiTable::num(cls.total_latency.percentile_us(99.0) / 1e3, 2)});
  }
  std::printf("%s\n", lat.render().c_str());
  std::printf("swap under load: %s (%lld attempted, %lld workers promoted, "
              "%lld rollbacks); post-swap outputs bit-identical: %s\n\n",
              swap_ok ? "ok" : "FAILED",
              static_cast<long long>(s.swaps_attempted),
              static_cast<long long>(s.swap_workers_swapped),
              static_cast<long long>(s.swap_rollbacks),
              outputs_identical ? "yes" : "NO");
  std::printf("metrics JSON (ramp):\n%s\n\n",
              ServingMetrics::to_json(s).c_str());

  const auto cls = [](const PhaseResult& r, Priority p) -> const ClassTally& {
    return r[static_cast<size_t>(p)];
  };
  const ClassTally& int_a = cls(phase_a, Priority::kInteractive);
  const ClassTally& int_b = cls(phase_b, Priority::kInteractive);
  const ClassTally& be_b = cls(phase_b, Priority::kBestEffort);
  i64 total_failed = 0;
  for (const PhaseResult* phase : {&phase_a, &phase_b})
    for (const ClassTally& t : *phase) total_failed += t.failed();

  bench::Gate gate;
  gate.check(total_failed == 0 && s.failed_requests == 0,
             "%lld requests resolved kFailed",
             static_cast<long long>(s.failed_requests));
  gate.check(swap_ok && outputs_identical,
             "mid-ramp model swap did not complete cleanly");
  gate.check(int_b.goodput() >= 0.9 * int_a.goodput(),
             "interactive goodput collapsed under overload "
             "(%.1f%% vs %.1f%% pre-saturation)",
             100.0 * int_b.goodput(), 100.0 * int_a.goodput());
  const f64 be_drop = be_b.share(be_b.dropped());
  const f64 int_drop = int_b.share(int_b.dropped());
  gate.check(be_drop >= int_drop,
             "interactive shed before best-effort (%.1f%% vs %.1f%% dropped)",
             100.0 * int_drop, 100.0 * be_drop);
  if (!gate.passed()) return gate.exit_code();

  std::printf(
      "shape check: under a 2x overload ramp the surplus is shed from "
      "best-effort first (rate limit + class budget + unmeetable-deadline "
      "shedding), interactive goodput holds within 10%% of its "
      "pre-saturation value, and a model swap rolled through mid-ramp "
      "promotes every worker without failing a single request, with "
      "post-swap outputs bit-identical to a fresh deploy of the image.\n");
  return 0;
}

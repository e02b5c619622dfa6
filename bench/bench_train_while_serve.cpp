// Train-while-serve benchmark: the continual-learning lane fine-tunes
// the Rep path + classifier on a drifted personalization task while the
// engine keeps serving live Poisson traffic, publishing accuracy-gated
// candidates through the zero-downtime swap path. Two open-loop phases
// at the same offered load — lane OFF, then lane ON — measure what the
// background training lane costs the inference path; a poisoned round
// mid-run demonstrates the regression gate (rolled back, never
// promoted).
//
// Exit code is the acceptance gate:
//   - adaptation works: best holdout accuracy beats the pre-adaptation
//     baseline and at least one image was published,
//   - the poisoned candidate was rolled back and never promoted (every
//     completed swap corresponds to a gate-passing publish),
//   - availability stays >= 99% in both phases (no failures, no drops),
//   - lane-ON p99 stays within 2x of the lane-OFF baseline.
//   usage: bench_train_while_serve [--smoke] [seed]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/table.h"
#include "harness.h"

namespace msh {
namespace {

struct PhaseStats {
  i64 submitted = 0;
  i64 ok = 0;
  std::vector<f64> latencies_us;  ///< completed requests only

  f64 availability() const {
    return submitted == 0 ? 0.0
                          : static_cast<f64>(ok) /
                                static_cast<f64>(submitted);
  }
  f64 percentile_us(f64 p) const {
    if (latencies_us.empty()) return 0.0;
    std::vector<f64> sorted = latencies_us;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(
        std::min<f64>(static_cast<f64>(sorted.size()) - 1.0,
                      std::ceil(p / 100.0 * sorted.size())));
    return sorted[rank];
  }
};

/// One open-loop Poisson phase; client-side latency so the two phases
/// stay separable (the engine histogram accumulates across both).
PhaseStats run_phase(ServingEngine& engine, const Dataset& pool, i64 total,
                     f64 rate_rps, Rng& rng) {
  PhaseStats stats;
  stats.submitted = total;
  for (auto& future : bench::run_poisson(engine, pool, total, rate_rps, rng)) {
    const InferenceResponse response = future.get();
    if (response.status == RequestStatus::kOk) {
      ++stats.ok;
      stats.latencies_us.push_back(response.total_us);
    }
  }
  return stats;
}

std::string sparkline(const std::vector<f64>& values) {
  static const char* kLevels[] = {"_", ".", "-", "=", "*", "#"};
  if (values.empty()) return "";
  f64 lo = values[0], hi = values[0];
  for (f64 v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (f64 v : values) {
    const f64 t = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    out += kLevels[static_cast<size_t>(std::lround(t * 5.0))];
  }
  return out;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  const bench::Args args(argc, argv, "bench_train_while_serve [--smoke] [seed]",
                         1);
  const u64 seed = args.seed();
  const bool smoke = args.smoke();
  const i64 warmup = smoke ? 24 : 48;
  const i64 per_phase = smoke ? 70 : 200;
  const i64 max_rounds = smoke ? 6 : 10;

  // Served task (engine calibration) + its drifted personalization: same
  // classes, new prototypes — what the lane adapts to.
  bench::LaneFixture fx(seed);
  const ServingEngineOptions options = bench::two_worker_options();

  const f64 capacity_rps =
      bench::measure_capacity_rps(fx, options, fx.adapt.test, warmup);
  const f64 rate_rps = 0.3 * capacity_rps;

  std::printf("=== Train-while-serve: capacity %.0f req/s, offered %.0f "
              "req/s x %lld per phase, %lld lane rounds, seed %llu%s ===\n\n",
              capacity_rps, rate_rps, static_cast<long long>(per_phase),
              static_cast<long long>(max_rounds),
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  ServingEngine engine(fx.model, fx.data.train, options);
  Rng arrival_rng(seed);
  Rng rng_off = arrival_rng.fork();
  Rng rng_on = arrival_rng.fork();

  // Phase OFF: inference only, the latency baseline.
  PhaseStats off = run_phase(engine, fx.adapt.test, per_phase, rate_rps,
                             rng_off);

  // Phase ON: identical offered load with the lane training concurrently.
  // The poisoned round exercises the regression gate mid-run.
  ContinualLearnerOptions lane_options = fx.lane_options();
  lane_options.max_rounds = max_rounds;
  lane_options.duty_cycle = 0.35;
  lane_options.poison_round = max_rounds / 2;
  lane_options.poison_stddev = 1.0f;
  ContinualLearner learner(engine, fx.trainer_model, fx.task_stream(),
                           fx.data.train, lane_options);
  learner.start();
  PhaseStats on = run_phase(engine, fx.adapt.test, per_phase, rate_rps,
                            rng_on);
  // Let the lane finish its round budget, then join it.
  while (learner.rounds() < max_rounds)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  learner.stop();

  engine.shutdown();
  const MetricsSnapshot s = engine.metrics().snapshot();
  const TrainingLaneCounters& lane = s.training_lane;

  AsciiTable table({"phase", "submitted", "ok", "availability", "p50 (ms)",
                    "p99 (ms)"});
  const auto phase_row = [&](const char* name, const PhaseStats& p) {
    table.add_row({name, std::to_string(p.submitted), std::to_string(p.ok),
                   AsciiTable::num(100.0 * p.availability(), 1) + "%",
                   AsciiTable::num(p.percentile_us(50.0) / 1e3, 2),
                   AsciiTable::num(p.percentile_us(99.0) / 1e3, 2)});
  };
  phase_row("lane OFF", off);
  phase_row("lane ON", on);
  std::printf("%s\n", table.render().c_str());

  AsciiTable lane_table({"metric", "value"});
  lane_table.add_row({"rounds", std::to_string(lane.rounds)});
  lane_table.add_row({"steps", std::to_string(lane.steps)});
  lane_table.add_row({"samples", std::to_string(lane.samples)});
  lane_table.add_row(
      {"baseline accuracy", AsciiTable::num(lane.baseline_accuracy, 3)});
  lane_table.add_row(
      {"best accuracy", AsciiTable::num(lane.best_accuracy, 3)});
  lane_table.add_row({"publishes", std::to_string(lane.publishes)});
  lane_table.add_row({"rollbacks", std::to_string(lane.rollbacks)});
  lane_table.add_row(
      {"train PE cycles", std::to_string(lane.train_pe_cycles)});
  lane_table.add_row({"slots written", std::to_string(lane.slots_written)});
  lane_table.add_row(
      {"steal ratio", AsciiTable::num(lane.steal_ratio(), 3)});
  std::printf("%s\n", lane_table.render().c_str());
  std::printf("loss     trajectory: %s\n",
              sparkline(lane.loss_trajectory).c_str());
  std::printf("accuracy trajectory: %s\n\n",
              sparkline(lane.accuracy_trajectory).c_str());
  std::printf("metrics JSON:\n%s\n\n", ServingMetrics::to_json(s).c_str());

  bench::Gate gate;
  gate.check(learner.best_accuracy() >= learner.baseline_accuracy() + 0.05,
             "adaptation did not improve holdout accuracy "
             "(baseline %.3f, best %.3f)",
             learner.baseline_accuracy(), learner.best_accuracy());
  gate.check(learner.publishes() >= 1, "no adapted image was published");
  gate.check(learner.rollbacks() >= 1,
             "the poisoned round was not rolled back");
  // Every completed swap was a gate-passing publish: a regressing
  // candidate never reached the serving replicas.
  gate.check(s.swaps_completed == lane.publishes,
             "%lld swaps completed vs %lld gated publishes",
             static_cast<long long>(s.swaps_completed),
             static_cast<long long>(lane.publishes));
  gate.check(off.availability() >= 0.99 && on.availability() >= 0.99 &&
                 s.failed_requests == 0,
             "availability dropped (OFF %.1f%%, ON %.1f%%, %lld failed)",
             100.0 * off.availability(), 100.0 * on.availability(),
             static_cast<long long>(s.failed_requests));
  // 2x p99 budget, with a floor so sub-ms baselines don't gate on timer
  // noise.
  const f64 p99_budget = 2.0 * std::max(off.percentile_us(99.0), 5000.0);
  gate.check(on.percentile_us(99.0) <= p99_budget,
             "lane-ON p99 %.2f ms exceeds budget %.2f ms (2x lane-OFF)",
             on.percentile_us(99.0) / 1e3, p99_budget / 1e3);
  if (!gate.passed()) return gate.exit_code();

  std::printf(
      "shape check: the continual-learning lane adapts the Rep path + "
      "classifier to the drifted task under live traffic (baseline %.3f "
      "-> best %.3f), publishes only accuracy-gated images through the "
      "zero-downtime swap, rolls the poisoned candidate back without "
      "promoting it, and costs the inference path neither availability "
      "nor its 2x p99 budget.\n",
      learner.baseline_accuracy(), learner.best_accuracy());
  return 0;
}

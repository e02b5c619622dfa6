// Chaos benchmark over the self-healing serving runtime: open-loop
// Poisson load while replica faults (crashes and MRAM corruption) are
// injected mid-run. Compares a clean baseline run against the chaos run
// and reports availability (accepted requests that resolved kOk or
// kTimedOut — never kFailed), retry/heal counts, and p99 inflation.
//
// Deterministic load: arrivals and fault points are drawn from the
// repo's own Rng with an explicit seed; the arrival rate is fixed (not
// measured) so the trace is reproducible across hosts.
//   usage: bench_serving_chaos [--smoke] [seed] [requests] [rate_img_s]
// --smoke shrinks the request count for the CI perf job (artifact
// collection + sanity, not steady-state measurement).
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/table.h"
#include "harness.h"

namespace msh {
namespace {

struct ChaosResult {
  bench::StatusTally replies;
  MetricsSnapshot metrics;
  i64 healthy_workers = 0;

  /// Accepted requests that resolved neither kOk nor kTimedOut.
  i64 failed() const {
    return replies.other_than({RequestStatus::kOk, RequestStatus::kTimedOut,
                               RequestStatus::kRejected});
  }
  f64 p99_ms() const {
    return metrics.total_latency.percentile_us(99.0) / 1e3;
  }
};

/// Open-loop run; when `faults > 0`, that many chaos faults are injected
/// at deterministic points in the arrival stream, alternating crash and
/// NVM-corruption faults round-robin across workers.
ChaosResult run(RepNetModel& model, const Dataset& calibration,
                const Dataset& pool, ServingEngineOptions options, i64 total,
                f64 rate_rps, i64 faults, Rng& rng) {
  ServingEngine engine(model, calibration, options);
  const i64 fault_stride = faults > 0 ? std::max<i64>(1, total / faults) : 0;
  i64 injected = 0;
  const auto inject = [&](i64 i, SubmitOptions&) {
    if (fault_stride == 0 || i % fault_stride != fault_stride / 2) return;
    const i64 worker = injected % options.workers;
    if (injected % 2 == 0) {
      engine.inject_worker_fault(worker, WorkerFault::kCrashNextBatch);
    } else {
      engine.inject_worker_fault(worker, WorkerFault::kCorruptNvm,
                                 MtjFaultModel::symmetric(5e-3),
                                 /*seed=*/rng.next_u64());
    }
    ++injected;
  };
  ChaosResult r;
  for (auto& future :
       bench::run_poisson(engine, pool, total, rate_rps, rng, inject))
    r.replies.add(future.get().status);
  engine.shutdown();
  r.metrics = engine.metrics().snapshot();
  r.healthy_workers = engine.healthy_workers();
  return r;
}

}  // namespace
}  // namespace msh

int main(int argc, char** argv) {
  using namespace msh;

  const bench::Args args(argc, argv,
                         "bench_serving_chaos [--smoke] [seed] [requests] "
                         "[rate_img_s]",
                         3);
  const u64 seed = args.seed();
  const i64 total = args.positive<i64>(1, args.smoke() ? 24 : 96);
  // Default offered load sits just under what two replicas sustain on a
  // typical host, so latency reflects service + heal pauses, not a
  // saturated queue; pass a rate to pin the trace on faster machines.
  const f64 rate = args.positive<f64>(2, 20.0);
  bench::ServingFixture fx(seed, /*test_per_class=*/16);

  ServingEngineOptions options = bench::two_worker_options();
  options.executor.ecc = EccMode::kSecDed;
  options.max_retries = 3;
  options.scrub_every_batches = 4;

  std::printf("=== Serving chaos: %lld requests, %.0f img/s offered, "
              "seed %llu ===\n\n",
              static_cast<long long>(total), rate,
              static_cast<unsigned long long>(seed));

  Rng arrival_rng(seed);
  Rng baseline_rng = arrival_rng.fork();
  Rng chaos_rng = arrival_rng.fork();
  const ChaosResult baseline = run(fx.model, fx.data.train, fx.data.test,
                                   options, total, rate, /*faults=*/0,
                                   baseline_rng);
  const i64 faults = std::max<i64>(4, total / 16);
  const ChaosResult chaos = run(fx.model, fx.data.train, fx.data.test,
                                options, total, rate, faults, chaos_rng);

  AsciiTable table({"run", "ok", "timed out", "failed", "rejected", "retries",
                    "heals", "p50 (ms)", "p99 (ms)", "healthy workers"});
  const auto row = [&](const char* name, const ChaosResult& r) {
    table.add_row({name, std::to_string(r.replies.count(RequestStatus::kOk)),
                   std::to_string(r.replies.count(RequestStatus::kTimedOut)),
                   std::to_string(r.failed()),
                   std::to_string(r.replies.count(RequestStatus::kRejected)),
                   std::to_string(r.metrics.retries),
                   std::to_string(r.metrics.heals),
                   AsciiTable::num(
                       r.metrics.total_latency.percentile_us(50.0) / 1e3, 2),
                   AsciiTable::num(r.p99_ms(), 2),
                   std::to_string(r.healthy_workers)});
  };
  row("baseline", baseline);
  row("chaos", chaos);
  std::printf("%s\n", table.render().c_str());

  const f64 inflation =
      baseline.p99_ms() > 0.0 ? chaos.p99_ms() / baseline.p99_ms() : 0.0;
  const i64 chaos_ok = chaos.replies.count(RequestStatus::kOk);
  const i64 accepted =
      chaos.replies.total() - chaos.replies.count(RequestStatus::kRejected);
  const f64 availability =
      accepted > 0 ? static_cast<f64>(chaos_ok) / accepted : 0.0;
  std::printf("chaos p99 inflation: %.2fx; availability of accepted "
              "requests: %.2f%% (%lld faults injected)\n\n",
              inflation, availability * 100.0,
              static_cast<long long>(faults));
  std::printf("metrics JSON (chaos run):\n%s\n\n",
              ServingMetrics::to_json(chaos.metrics).c_str());

  // Acceptance bar: chaos must never surface a replica fault to a
  // client as kFailed, and the engine must end fully healed.
  bench::Gate gate;
  gate.check(chaos.failed() == 0 && chaos.healthy_workers == options.workers,
             "%lld requests failed, %lld/%lld workers healthy",
             static_cast<long long>(chaos.failed()),
             static_cast<long long>(chaos.healthy_workers),
             static_cast<long long>(options.workers));
  if (!gate.passed()) return gate.exit_code();
  std::printf(
      "shape check: every accepted request resolves kOk or kTimedOut under "
      "chaos (never kFailed); crashes surface as retries + heals, NVM "
      "corruption as scrub corrections (and heals when uncorrectable); the "
      "engine ends with all workers healthy and p99 inflated only "
      "modestly by redeploy pauses.\n");
  return 0;
}

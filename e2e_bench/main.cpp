// End-to-end benchmark of the serving system: raw-backend serving
// (closed-loop batch and open-loop interactive) and train-while-serve,
// driven only through public APIs (ServingEngine, ContinualLearner::
// run_round, PimRepNetExecutor, and the kernels/tensor/nn/arch
// functions). See README.md for the workloads and metrics.
//
//   usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--perturb-reply]
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// runs the workload twice in this process, untraced then traced (spans
// recorded around every call into the system, written to --trace-out as
// Chrome trace-event JSON), replays every layer through the per-layer
// probes, and prints the per-layer metrics plus the tracing overhead
// (traced vs untraced cpu_ms_per_image). --perturb-reply flips one bit
// of one checked reply, so the bit-exactness check must fail (used by
// the self-test).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when any correctness check fails.
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/stopwatch.h"
#include "fixture.h"
#include "probes.h"
#include "sim/energy_model.h"
#include "stats.h"
#include "trace.h"

namespace e2e {
namespace {

constexpr int kSetups = 15;          // set-ups per run; setup_s is their median
constexpr int kProbeSwaps = 5;       // probe swaps; swap_model_ms is their median
constexpr f64 kWarmupS = 0.5;        // untimed traffic before the window
constexpr f64 kSliceS = 1.5;         // shortest latency/throughput slice
constexpr i64 kSliceSamples = 1500;  // requests per slice, on average

struct Args {
  std::string workload;
  u64 seed = 0;
  i64 seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool perturb_reply = false;
};

f64 now_us() { return monotonic_now_us(); }

/// CPU time of the process or of the calling thread, in seconds. CPU
/// time leaves out the time a vCPU is stolen by the host.
f64 cpu_s(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<f64>(t.tv_sec) + static_cast<f64>(t.tv_nsec) / 1e9;
}

f64 peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<f64>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Row i of [N, classes] logits, as a [1, classes] reply.
Tensor row_of(const Tensor& logits, i64 i) {
  const i64 classes = logits.shape()[1];
  Tensor row(Shape{1, classes});
  for (i64 c = 0; c < classes; ++c) row[c] = logits[i * classes + c];
  return row;
}

struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  /// Client-side latency, reported per-layer (see README: too host-bound
  /// on open loops to carry a regression bound).
  Metrics latency;
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
};

void check(RunResult& r, bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  r.correct = r.correct && ok;
}

/// The p99 of `samples`, printed with its sample count; the run fails
/// unless at least kMinBeyond samples lie beyond it.
f64 checked_p99(RunResult& r, const std::string& name,
                const std::vector<f64>& samples) {
  const Percentile p = percentile(samples, 99.0);
  std::printf("%s = %.4f over %lld samples, %lld beyond\n", name.c_str(),
              p.value, static_cast<long long>(p.samples),
              static_cast<long long>(p.beyond));
  check(r, p.beyond >= kMinBeyond,
        name + " has " + std::to_string(kMinBeyond) + " samples beyond");
  return p.value;
}

/// The continual lane's fixed round budget, run on the calling thread.
struct Lane {
  std::vector<f64> round_ms;
  std::vector<bool> rolled_back;  ///< per round
  f64 wall_s = 0.0;
  f64 cpu_s = 0.0;  ///< CPU time of the lane's thread
};

Lane run_lane(ContinualLearner& learner, i64 rounds, Tracer& tracer) {
  Lane lane;
  const f64 start = now_us();
  const f64 cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  for (i64 r = 0; r < rounds; ++r) {
    const i64 rollbacks = learner.rollbacks();
    const f64 t0 = now_us();
    learner.run_round();
    const f64 t1 = now_us();
    tracer.record("continual.round " + std::to_string(r), "runtime/continual",
                  t0, t1);
    lane.round_ms.push_back((t1 - t0) / 1e3);
    lane.rolled_back.push_back(learner.rollbacks() > rollbacks);
  }
  lane.wall_s = (now_us() - start) / 1e6;
  lane.cpu_s = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  std::printf("lane: %lld rounds in %.3f s; round ms",
              static_cast<long long>(rounds), lane.wall_s);
  for (const f64 ms : lane.round_ms) std::printf(" %.0f", ms);
  std::printf("\n");
  return lane;
}

/// Client-side figures of the timed window. Latency and throughput are
/// taken per slice of the window (by due time; slices of at least
/// kSliceS seconds and kSliceSamples kOk replies on average) and reported
/// as the median over slices, so a burst of host interference moves one
/// slice, not the figure.
struct Summary {
  f64 images_per_s = 0.0;
  f64 p50_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 goodput = 0.0;
  i64 samples = 0;
  i64 min_beyond = 0;  ///< fewest samples past p99 in any slice
  std::vector<f64> submit_us, queue_ms, service_ms, wake_us;
};

Summary summarize(const WorkloadConfig& cfg, const Traffic& t,
                  RunResult& result) {
  Summary s;
  const f64 window_us = t.end_us - t.start_us;
  const i64 ok = std::count_if(
      t.outcomes.begin(), t.outcomes.end(),
      [](const Outcome& o) { return o.status == RequestStatus::kOk; });
  const i64 slices = std::max<i64>(
      1, std::min(static_cast<i64>(window_us / 1e6 / kSliceS),
                  ok / kSliceSamples));
  const f64 slice_us = window_us / static_cast<f64>(slices);
  const auto slice_of = [&](f64 at_us) {
    return std::clamp<i64>(static_cast<i64>((at_us - t.start_us) / slice_us),
                           0, slices - 1);
  };
  std::vector<std::vector<f64>> latency_ms(slices);
  std::vector<f64> images(slices, 0.0);
  i64 good = 0;
  for (const Outcome& o : t.outcomes) {
    ++result.attempted;
    if (o.status != RequestStatus::kOk) {
      ++result.failed;  // failed and refused requests miss every limit
      continue;
    }
    const f64 latency_us = o.done_us - o.due_us;
    latency_ms[slice_of(o.due_us)].push_back(latency_us / 1e3);
    if (o.done_us <= t.end_us) images[slice_of(o.done_us)] += 1.0;
    if (cfg.load == Load::kClosed || latency_us <= cfg.latency_limit_ms * 1e3)
      ++good;
    s.submit_us.push_back(o.submitted_us - o.submit_us);
    s.queue_ms.push_back(o.queue_us / 1e3);
    s.service_ms.push_back((o.total_us - o.queue_us) / 1e3);
    s.wake_us.push_back(o.done_us - (o.submit_us + o.total_us));
  }
  std::vector<f64> p50s, p99s, rates;
  s.min_beyond = -1;
  for (i64 k = 0; k < slices; ++k) {
    const Percentile p99 = percentile(latency_ms[k], 99.0);
    p50s.push_back(percentile(latency_ms[k], 50.0).value);
    p99s.push_back(p99.value);
    rates.push_back(images[k] / (slice_us / 1e6));
    s.samples += p99.samples;
    s.min_beyond =
        s.min_beyond < 0 ? p99.beyond : std::min(s.min_beyond, p99.beyond);
  }
  s.images_per_s = median(rates);
  s.p50_ms = median(p50s);
  s.p99_ms = median(p99s);
  s.goodput = result.attempted > 0 ? static_cast<f64>(good) /
                                         static_cast<f64>(result.attempted)
                                   : 0.0;

  std::printf("%s: %lld requests in %.3f s window, %lld ok in window; "
              "latency p50 %.4f ms and p99 %.4f ms over %lld samples in %lld "
              "slices (at least %lld beyond p99 in each)\n",
              cfg.name, static_cast<long long>(result.attempted),
              window_us / 1e6, static_cast<long long>(t.images_in_window),
              s.p50_ms, s.p99_ms, static_cast<long long>(s.samples),
              static_cast<long long>(slices),
              static_cast<long long>(s.min_beyond));
  std::printf("slices: images/s");
  for (const f64 v : rates) std::printf(" %.1f", v);
  std::printf("; p99 ms");
  for (const f64 v : p99s) std::printf(" %.3f", v);
  std::printf("\n");
  return s;
}

/// Modeled cycles and energy per image of the sample rows.
struct SimCounts {
  f64 cycles = 0.0;
  f64 energy_nj = 0.0;
};

/// Correctness of the served replies: the warm-up replies against a
/// modeled replica of the deployed model, and fresh replies against a
/// modeled replica of whatever image the engine serves at the end.
/// Returns the modeled replica's cycle and energy counts for the sample.
SimCounts check_replies(const WorkloadConfig& cfg, System& sys,
                        const Dataset& pool, std::vector<Tensor> warm_replies,
                        bool perturb, RunResult& result) {
  auto ref_model = make_model(cfg);
  ref_model->copy_state_from(*sys.model);
  PimExecutorOptions options = executor_options();
  options.backend = KernelBackend::kModeled;
  PimRepNetExecutor modeled(*ref_model, sys.served.train, options);
  const Tensor sample = pool.batch_images(0, kSampleImages);
  const PeEventCounts before = modeled.core().pe_events();
  const Tensor logits = modeled.forward(sample);
  const PeEventCounts after = modeled.core().pe_events();
  const EnergyModel energy;
  SimCounts sim;
  sim.cycles = static_cast<f64>(after.cycles - before.cycles) / kSampleImages;
  sim.energy_nj =
      (energy.price(after).total() - energy.price(before).total()).as_nj() /
      kSampleImages;

  if (perturb && !warm_replies[0].empty()) {
    u32 bits = 0;
    std::memcpy(&bits, warm_replies[0].data(), sizeof(bits));
    bits ^= 1u;
    std::memcpy(warm_replies[0].data(), &bits, sizeof(bits));
  }
  bool exact = true;
  for (i64 i = 0; i < kSampleImages; ++i)
    exact = exact && same_bits(warm_replies[static_cast<size_t>(i)],
                               row_of(logits, i));
  check(result, exact,
        "warm-up raw replies bit-identical to the modeled replica");

  const auto& published = sys.learner->last_published();
  const Tensor final_logits =
      published ? modeled.clone_with_image(published)->forward(sample)
                : logits;
  exact = true;
  for (i64 i = 0; i < kSampleImages; ++i) {
    const InferenceResponse r =
        sys.engine->submit(pool.batch_images(i, 1)).get();
    exact = exact && r.status == RequestStatus::kOk &&
            same_bits(r.logits, row_of(final_logits, i));
  }
  check(result, exact,
        "final raw replies bit-identical to the modeled final image");

  // The serialized image ends with its own CRC-32 footer.
  const std::string blob =
      (published ? *published : modeled.export_image()).serialize();
  u32 crc = 0;
  std::memcpy(&crc, blob.data() + blob.size() - sizeof(crc), sizeof(crc));
  std::printf("final image crc32 0x%08x (%s, %lld publishes)\n", crc,
              published ? "last published" : "as deployed",
              static_cast<long long>(sys.learner->publishes()));
  return sim;
}

/// One run of the workload: set-ups, warm-up, timed window, lane, checks,
/// and in a traced run the per-layer probes.
RunResult run_workload(const WorkloadConfig& cfg, const Args& args,
                       bool traced, Tracer& tracer) {
  RunResult result;
  const i64 lane_rounds =
      cfg.lane_beside_traffic
          ? std::max<i64>(3, std::llround(static_cast<f64>(args.seconds) *
                                          cfg.lane_rounds))
          : static_cast<i64>(cfg.lane_rounds);

  // Set-up, repeated; the last system is the one measured.
  std::vector<f64> setup_s, engine_ms;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    const f64 t0 = now_us();
    sys = build_system(cfg, lane_rounds);
    const f64 t1 = now_us();
    tracer.record("setup", "deploy", t0, t1);
    setup_s.push_back((t1 - t0) / 1e6);
    engine_ms.push_back(sys->engine_ms);
  }
  ServingEngine& engine = *sys->engine;
  ContinualLearner& learner = *sys->learner;
  const Dataset pool = make_request_pool(cfg, args.seed);
  Rng traffic_rng(args.seed);

  // Untimed warm-up; it also captures the checked sample replies.
  std::vector<Tensor> warm_replies(kSampleImages);
  {
    Tracer off(false);
    Client warm(engine, pool, traffic_rng, off, &warm_replies);
    const auto until = [](f64 elapsed_s) { return elapsed_s < kWarmupS; };
    if (cfg.load == Load::kClosed)
      warm.closed(cfg.closed_window, until);
    else
      warm.open(cfg.rate_rps, until);
  }

  // Timed window: for --seconds, or for as long as the lane runs beside
  // the traffic.
  Client client(engine, pool, traffic_rng, tracer, nullptr);
  Traffic traffic;
  Lane lane;
  const f64 cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  if (cfg.lane_beside_traffic) {
    std::atomic<bool> lane_done{false};
    std::exception_ptr lane_error;
    std::thread lane_thread([&] {
      try {
        lane = run_lane(learner, lane_rounds, tracer);
      } catch (...) {
        lane_error = std::current_exception();
      }
      lane_done.store(true);
    });
    traffic =
        client.open(cfg.rate_rps, [&](f64) { return !lane_done.load(); });
    lane_thread.join();
    if (lane_error) std::rethrow_exception(lane_error);
  } else {
    const f64 seconds = static_cast<f64>(args.seconds);
    const auto until = [seconds](f64 elapsed_s) { return elapsed_s < seconds; };
    traffic = cfg.load == Load::kClosed
                  ? client.closed(cfg.closed_window, until)
                  : client.open(cfg.rate_rps, until);
  }
  // Serving CPU: the whole process but the lane, while the traffic ran.
  const f64 serve_cpu_s =
      cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - lane.cpu_s;
  if (!cfg.lane_beside_traffic) lane = run_lane(learner, lane_rounds, tracer);

  const Summary s = summarize(cfg, traffic, result);
  check(result, s.min_beyond >= kMinBeyond,
        "at least " + std::to_string(kMinBeyond) +
            " latency samples beyond p99 in every slice");
  const SimCounts sim = check_replies(cfg, *sys, pool, warm_replies,
                                      args.perturb_reply, result);
  const MetricsSnapshot snap = engine.metrics().snapshot();
  const f64 ok_replies = static_cast<f64>(std::count_if(
      traffic.outcomes.begin(), traffic.outcomes.end(),
      [](const Outcome& o) { return o.status == RequestStatus::kOk; }));
  const i64 poison = lane_rounds / 2;
  check(result, learner.publishes() >= 1, "lane published at least once");
  check(result, lane.rolled_back[static_cast<size_t>(poison)],
        "poisoned round " + std::to_string(poison) + " rolled back");
  check(result, snap.swaps_completed == learner.publishes(),
        "swaps_completed == publishes");

  Metrics& e = result.end_to_end;
  e["setup_s"] = {median(setup_s), "s"};
  e["images_per_s"] = {s.images_per_s, "img/s"};
  e["goodput_frac"] = {s.goodput, "frac"};
  e["adapt_best_accuracy"] = {learner.best_accuracy(), "frac"};
  e["sim_cycles_per_image"] = {sim.cycles, "cycles"};
  e["sim_energy_nj_per_image"] = {sim.energy_nj, "nJ"};
  e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e["cpu_ms_per_image"] = {serve_cpu_s * 1e3 / ok_replies, "ms"};
  result.latency["bench.latency_p50_ms"] = {s.p50_ms, "ms"};
  result.latency["bench.latency_p99_ms"] = {s.p99_ms, "ms"};
  if (!traced) return result;

  // Per-layer metrics: probes replay the served model's layers after the
  // window; a probe swap re-deploys the same weights under idle traffic.
  auto probe_model = make_model(cfg);
  probe_model->copy_state_from(*sys->model);
  const ProbeReport probes =
      run_probes(cfg, *probe_model, sys->served.train, pool, tracer);
  check(result, probes.exact,
        "layer replay bit-identical to the raw executor forward");
  check(result, probes.sim_cycles_per_image == sim.cycles,
        "probe SRAM + MRAM cycles == modeled replica cycles");
  std::vector<f64> swap_ms;
  bool swapped = true;
  for (int i = 0; i < kProbeSwaps; ++i) {
    const f64 swap0 = now_us();
    swapped = engine.swap_model(probes.image) && swapped;
    const f64 swap1 = now_us();
    tracer.record("runtime.swap_model", "runtime", swap0, swap1);
    swap_ms.push_back((swap1 - swap0) / 1e3);
  }
  check(result, swapped, "probe swap_model promoted every worker");

  Metrics& l = result.per_layer;
  l = probes.metrics;
  l["runtime.submit_us.p50"] = {median(s.submit_us), "us"};
  l["runtime.queue_ms.p50"] = {median(s.queue_ms), "ms"};
  l["runtime.queue_ms.p99"] = {
      checked_p99(result, "runtime.queue_ms.p99", s.queue_ms), "ms"};
  l["runtime.service_ms.p50"] = {median(s.service_ms), "ms"};
  l["runtime.wake_us.p50"] = {median(s.wake_us), "us"};
  l["runtime.batch_rows.mean"] = {
      snap.batches > 0 ? static_cast<f64>(snap.completed_rows) /
                             static_cast<f64>(snap.batches)
                       : 0.0,
      "rows"};
  l["runtime.retries"] = {static_cast<f64>(snap.retries), "count"};
  l["runtime.failed"] = {static_cast<f64>(snap.failed_requests), "count"};
  l["runtime.swap_model_ms"] = {median(swap_ms), "ms"};
  l["adapt_rounds_per_s"] = {static_cast<f64>(lane_rounds) / lane.wall_s,
                             "rounds/s"};
  l["continual.round_ms.p50"] = {median(lane.round_ms), "ms"};
  l["continual.publishes"] = {static_cast<f64>(learner.publishes()), "count"};
  l["continual.rollbacks"] = {static_cast<f64>(learner.rollbacks()), "count"};
  l["deploy.setup_ms"] = {median(engine_ms), "ms"};
  const WearTotals& wear = snap.wear.totals;
  const f64 publish_words = static_cast<f64>(
      wear.words_written_by_path[static_cast<size_t>(WearPath::kPublish)]);
  l["device.wear.words_written_per_publish"] = {
      learner.publishes() > 0
          ? publish_words / static_cast<f64>(learner.publishes())
          : 0.0,
      "words"};
  l["device.wear.delta_skip_frac"] = {wear.delta_savings_ratio(), "frac"};
  l["device.wear.retries"] = {static_cast<f64>(wear.retries), "count"};
  l["proc.cpu_ms_per_image"] = e.at("cpu_ms_per_image");
  l["bench.generator_lag_ms.p99"] = {
      checked_p99(result, "bench.generator_lag_ms.p99", traffic.lag_ms),
      "ms"};
  return result;
}

void print_result(const Metrics& metrics, const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reply") {
      a.perturb_reply = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || a.seconds < 1 || a.seconds > 600) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && have_trace;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--perturb-reply]\n");
    return 2;
  }
  const WorkloadConfig* cfg = find_workload(args.workload);
  if (cfg == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    Tracer off(false);
    const RunResult base = run_workload(*cfg, args, false, off);
    if (!args.trace) {
      print_result(base.end_to_end, base);
      return base.correct ? 0 : 1;
    }
    // Untraced then traced, in one process: the gap in serving CPU per
    // image is the tracing overhead (spans are recorded on the client's
    // thread, whose CPU time the metric counts).
    Tracer tracer(true);
    RunResult traced = run_workload(*cfg, args, true, tracer);
    const f64 untraced_v = base.end_to_end.at("cpu_ms_per_image").first;
    const f64 traced_v = traced.end_to_end.at("cpu_ms_per_image").first;
    traced.per_layer["bench.tracing_overhead_pct"] = {
        100.0 * (traced_v - untraced_v) / untraced_v, "%"};
    traced.per_layer.insert(base.latency.begin(), base.latency.end());
    std::printf("tracing overhead on cpu_ms_per_image: untraced %.4f, "
                "traced %.4f; %lld spans\n",
                untraced_v, traced_v,
                static_cast<long long>(tracer.size()));
    if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
    traced.correct = traced.correct && base.correct;
    traced.attempted += base.attempted;
    traced.failed += base.failed;
    print_result(traced.per_layer, traced);
    return traced.correct ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "e2e_bench: %s\n", ex.what());
    return 1;
  }
}

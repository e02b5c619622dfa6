#include "fixture.h"

#include <algorithm>
#include <stdexcept>

#include "common/stopwatch.h"
#include "workloads/task_suite.h"

namespace e2e {

namespace {

constexpr u64 kSystemSeed = 2024;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WorkloadConfig kWorkloads[] = {
    {.name = "serve-batch",
     .image_size = 16,
     .backbone = {.stem_channels = 16,
                  .stage_channels = {16, 32, 64},
                  .blocks_per_stage = {1, 1, 1},
                  .stage_strides = {1, 2, 2}},
     .workers = 2,
     .max_batch_rows = 8,
     .max_wait_us = 1000.0,
     .load = Load::kClosed,
     .closed_window = 2 * 2 * 8,
     .rate_rps = 0.0,
     .latency_limit_ms = 0.0,
     .wear = false,
     .lane_beside_traffic = false,
     .lane_rounds = 10},
    {.name = "serve-interactive",
     .image_size = 12,
     .backbone = {.stem_channels = 8,
                  .stage_channels = {8, 16},
                  .blocks_per_stage = {1, 1},
                  .stage_strides = {1, 2}},
     .workers = 2,
     .max_batch_rows = 4,
     .max_wait_us = 200.0,
     .load = Load::kOpen,
     .closed_window = 0,
     .rate_rps = 600.0,
     .latency_limit_ms = 25.0,
     .wear = false,
     .lane_beside_traffic = false,
     .lane_rounds = 40},
    {.name = "train-while-serve",
     .image_size = 12,
     .backbone = {.stem_channels = 8,
                  .stage_channels = {8, 16},
                  .blocks_per_stage = {1, 1},
                  .stage_strides = {1, 2}},
     .workers = 2,
     .max_batch_rows = 4,
     .max_wait_us = 200.0,
     .load = Load::kOpen,
     .closed_window = 0,
     .rate_rps = 600.0,
     .latency_limit_ms = 100.0,
     .wear = true,
     .lane_beside_traffic = true,
     .lane_rounds = 7.0},
};

SyntheticSpec served_spec(const WorkloadConfig& cfg, u64 seed) {
  SyntheticSpec spec;
  spec.name = cfg.name;
  spec.classes = kClasses;
  spec.train_per_class = 16;
  spec.test_per_class = 16;
  spec.image_size = cfg.image_size;
  spec.seed = seed;
  return spec;
}

}  // namespace

const WorkloadConfig* find_workload(const std::string& name) {
  for (const WorkloadConfig& cfg : kWorkloads)
    if (name == cfg.name) return &cfg;
  return nullptr;
}

PimExecutorOptions executor_options() {
  PimExecutorOptions options;
  options.backend = KernelBackend::kRaw;
  options.intra_op_threads = 1;
  return options;
}

std::unique_ptr<RepNetModel> make_model(const WorkloadConfig& cfg) {
  Rng rng(kSystemSeed);
  auto model = std::make_unique<RepNetModel>(
      cfg.backbone,
      RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8}, kClasses,
      rng);
  model->backbone().set_trainable(false);  // on-device learning setup
  return model;
}

Dataset make_request_pool(const WorkloadConfig& cfg, u64 seed) {
  return make_synthetic_dataset(served_spec(cfg, seed)).test;
}

std::unique_ptr<System> build_system(const WorkloadConfig& cfg,
                                     i64 lane_rounds) {
  auto sys = std::make_unique<System>();
  const SyntheticSpec served = served_spec(cfg, kSystemSeed);
  sys->served = make_synthetic_dataset(served);
  SyntheticSpec adapt_spec = adaptation_task_spec(served, kSystemSeed + 300);
  adapt_spec.train_per_class = 20;

  sys->model = make_model(cfg);
  if (sys->plan.prune(sys->model->backbone_params(), kSparse1of4,
                      /*use_gradient_saliency=*/false) == 0)
    throw std::runtime_error("backbone prune touched no layer");

  ServingEngineOptions options;
  options.workers = cfg.workers;
  options.queue_capacity = std::max<i64>(256, 2 * cfg.closed_window);
  options.batcher = {.max_batch_rows = cfg.max_batch_rows,
                     .max_wait_us = cfg.max_wait_us};
  options.executor = executor_options();
  options.intra_op_threads = 1;
  options.wear.enabled = cfg.wear;
  const Stopwatch deploy;
  sys->engine =
      std::make_unique<ServingEngine>(*sys->model, sys->served.train, options);
  sys->engine_ms = deploy.elapsed_us() / 1e3;

  // The lane's data, sample order and poison noise are part of the
  // system, not of the seeded traffic: every run adapts identically, so
  // adapt_best_accuracy and the published images are exact.
  ContinualLearnerOptions lane;
  lane.seed = kSystemSeed;
  lane.batch = kLaneBatch;
  lane.steps_per_round = 6;
  lane.rep_lr = 0.02f;
  lane.head_lr = 0.15f;
  lane.min_accuracy_gain = 0.01;
  lane.rollback_margin = 0.05;
  lane.holdout_batch = 16;
  lane.poison_round = lane_rounds / 2;
  lane.poison_stddev = 1.0f;
  lane.swap.worker_timeout_us = 120e6;
  sys->trainer_model = make_model(cfg);
  sys->learner = std::make_unique<ContinualLearner>(
      *sys->engine, *sys->trainer_model,
      TaskStream(make_synthetic_dataset(adapt_spec), kSystemSeed + 7),
      sys->served.train, lane);
  return sys;
}

}  // namespace e2e

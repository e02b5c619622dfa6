// The three benchmark workloads and the system each one stands up.
//
// Everything the system is built from — model weights, the served task
// used for calibration, the personalization task the continual lane
// adapts to — comes from a fixed system seed, so every run measures the
// same deployment and adapts it the same way. The --seed argument
// generates the traffic: the request images, their order and the Poisson
// arrival times.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "repnet/sparsify.h"
#include "runtime/continual/continual_learner.h"

namespace e2e {

using namespace msh;

enum class Load {
  kClosed,  ///< a fixed number of requests kept outstanding
  kOpen,    ///< seeded Poisson arrivals at a fixed rate
};

struct WorkloadConfig {
  const char* name;
  i32 image_size;
  BackboneConfig backbone;
  i64 workers;
  i64 max_batch_rows;
  f64 max_wait_us;
  Load load;
  i64 closed_window;      ///< outstanding requests (closed loop)
  f64 rate_rps;           ///< offered single-image requests/s (open loop)
  f64 latency_limit_ms;   ///< goodput limit from the due time (open loop)
  bool wear;              ///< MRAM wear ledger on every replica
  /// The lane trains beside the timed traffic; otherwise it runs alone,
  /// on an idle engine, after the timed window.
  bool lane_beside_traffic;
  /// Lane round budget: beside traffic it is seconds x this rate (the
  /// timed window lasts as long as the lane); alone it is this value.
  f64 lane_rounds;
};

const WorkloadConfig* find_workload(const std::string& name);

/// Classes of the served task (and of every request).
inline constexpr i32 kClasses = 4;
/// Rows per lane training step.
inline constexpr i64 kLaneBatch = 8;
/// Images the modeled replica replays, and whose raw replies are checked
/// bit for bit: request-pool rows [0, kSampleImages).
inline constexpr i64 kSampleImages = 4;

/// Everything one set-up builds. Members are destroyed in reverse order:
/// the learner before the engine, the engine before the model it serves.
struct System {
  TrainTestSplit served;  ///< calibration / holdout data of the served task
  std::unique_ptr<RepNetModel> model;
  SparsityPlan plan;
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<RepNetModel> trainer_model;
  std::unique_ptr<ContinualLearner> learner;
  f64 engine_ms = 0.0;  ///< deploying every replica (engine construction)
};

/// One full set-up: datasets, model, 1:4 backbone prune, engine deploy of
/// all replicas, and the continual learner with `lane_rounds` rounds
/// budgeted (its poisoned round is the middle one).
std::unique_ptr<System> build_system(const WorkloadConfig& cfg,
                                     i64 lane_rounds);

/// A model with the workload's architecture and the system weights
/// (unpruned); callers mirror a served model into it with
/// copy_state_from.
std::unique_ptr<RepNetModel> make_model(const WorkloadConfig& cfg);

/// The request images for `seed`: fresh draws of the served task's
/// geometry, independent of the calibration data.
Dataset make_request_pool(const WorkloadConfig& cfg, u64 seed);

/// The engine's executor options (raw backend, one intra-op thread).
PimExecutorOptions executor_options();

/// Same shape and the same bits (logits are compared exactly).
inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(f32) * a.numel()) == 0;
}

}  // namespace e2e

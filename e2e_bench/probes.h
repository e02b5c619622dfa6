// Per-layer probes for the traced run. They replay every deployed layer
// of the workload's model at the workload's batch size through the same
// public functions a raw forward runs — tensor::im2col and transpose,
// the kernels quantize / flat-CSC / SIMD matmul / dequantize,
// arch::HybridCore::matmul — and through the modeled PE walks, timing
// each phase. The replayed logits must equal the raw executor's bit for
// bit, which shows the probes measure the real path. The periphery is
// the executor's forward time minus the replayed phases.
#pragma once

#include <memory>

#include "fixture.h"
#include "stats.h"
#include "trace.h"

namespace e2e {

struct ProbeReport {
  /// Per-layer metrics (kernels, tensor, nn, arch, sim, deploy).
  Metrics metrics;
  /// Replayed logits bit-identical to PimRepNetExecutor::forward,
  /// HybridCore::matmul identical to the flat-CSC kernel on every layer,
  /// and the image clone passing verify_against.
  bool exact = false;
  /// Modeled PE cycles per image of the first kSampleImages pool images.
  f64 sim_cycles_per_image = 0.0;
  /// The probe executor's image (the served model's weights).
  std::shared_ptr<const DeploymentImage> image;
};

/// `model` must mirror the served model; it is used single-threaded.
ProbeReport run_probes(const WorkloadConfig& cfg, RepNetModel& model,
                       const Dataset& calibration, const Dataset& pool,
                       Tracer& tracer);

}  // namespace e2e

#include "probes.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"
#include "deploy/pim_trainer.h"
#include "kernels/flat_csc.h"
#include "kernels/modeled.h"
#include "kernels/quant_kernels.h"
#include "sim/energy_model.h"

namespace e2e {

namespace {

constexpr int kReps = 5;

/// Median wall time of `reps` calls, in microseconds, each recorded as a
/// span.
template <typename F>
f64 median_us(Tracer& tracer, const char* name, const char* layer, int reps,
              F&& fn) {
  std::vector<f64> times;
  for (int i = 0; i < reps; ++i) {
    const f64 t0 = monotonic_now_us();
    fn();
    const f64 t1 = monotonic_now_us();
    tracer.record(name, layer, t0, t1);
    times.push_back(t1 - t0);
  }
  return median(times);
}

// Same arithmetic as the executor's periphery ReLU (max, keeping -0.0).
Tensor relu(Tensor x) {
  for (i64 i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
  return x;
}

/// Batch totals (microseconds) of one replay, per phase. The replay's
/// own periphery (BN, ReLU, pool, adds, NCHW scatter) is not timed: it
/// copies executor code, so nn.periphery_us is derived from the real
/// forward instead (see run_probes).
struct PhaseTimes {
  f64 im2col = 0, transpose = 0, quantize = 0, flat_build = 0,
      csc_matmul = 0, dequant = 0, arch_matmul = 0;

  /// The phases the executor's own forward runs.
  f64 forward_kernels() const {
    return im2col + transpose + quantize + flat_build + csc_matmul + dequant;
  }
};

/// Totals of the modeled walk over the sample images.
struct ModeledTotals {
  f64 us = 0.0;
  PeEventCounts sram, mram;
};

/// Replays the executor's forward walk (PimRepNetExecutor::walk) layer by
/// layer through the public kernel, tensor, nn and arch functions, timing
/// the kernel, tensor and arch calls.
class LayerReplay {
 public:
  LayerReplay(RepNetModel& model, const PimRepNetExecutor& exec,
              const DeploymentImage& image, Tracer& tracer)
      : model_(model), tracer_(tracer), core_(raw_core_options()) {
    Backbone& bb = model.backbone();
    for (i64 i = 0; i < bb.stem().size(); ++i)
      if (auto* conv = dynamic_cast<Conv2d*>(&bb.stem().layer(i)))
        add(conv, "stem." + std::to_string(i), false, exec, image);
    for (i64 s = 0; s < bb.num_stages(); ++s) {
      for (i64 b = 0; b < bb.stage(s).size(); ++b) {
        auto& block = dynamic_cast<ResidualBlock&>(bb.stage(s).layer(b));
        const std::string p =
            "stage" + std::to_string(s) + ".block" + std::to_string(b);
        add(&block.conv1(), p + ".conv1", false, exec, image);
        add(&block.conv2(), p + ".conv2", false, exec, image);
        if (block.has_projection())
          add(&block.projection(), p + ".proj", false, exec, image);
      }
    }
    for (i64 m = 0; m < model.num_rep_modules(); ++m) {
      const std::string p = "rep" + std::to_string(m);
      add(&model.rep_module(m).reduce(), p + ".reduce", true, exec, image);
      add(&model.rep_module(m).expand(), p + ".expand", true, exec, image);
    }
    add(&model.classifier(), "classifier", true, exec, image);
  }

  /// Forward of `images`; with `modeled_images` > 0 the first that many
  /// images' rows also run through the modeled PE walks.
  Tensor forward(const Tensor& images, i64 modeled_images, PhaseTimes& t,
                 ModeledTotals& modeled) {
    t_ = &t;
    modeled_ = &modeled;
    modeled_images_ = modeled_images;
    batch_ = images.shape()[0];
    macs_ = bytes_ = 0.0;
    Backbone& bb = model_.backbone();
    Tensor a = images;
    for (i64 i = 0; i < bb.stem().size(); ++i) {
      Layer& layer = bb.stem().layer(i);
      if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
        a = conv_forward(*conv, a);
      } else {
        a = layer.forward(a, false);
      }
    }
    Tensor r;
    for (i64 s = 0; s < bb.num_stages(); ++s) {
      Tensor u = a;
      if (!r.empty()) u += r;  // activation connector
      Tensor next = u;
      for (i64 b = 0; b < bb.stage(s).size(); ++b)
        next = residual(dynamic_cast<ResidualBlock&>(bb.stage(s).layer(b)),
                        next);
      a = std::move(next);
      r = rep(model_.rep_module(s), u);
    }
    Tensor merged = a;
    merged += r;
    const i64 n = merged.shape()[0], c = merged.shape()[1],
              spatial = merged.shape()[2] * merged.shape()[3];
    Tensor features(Shape{n, c});
    for (i64 i = 0; i < n * c; ++i) {  // global average pool
      f64 acc = 0.0;
      for (i64 s = 0; s < spatial; ++s) acc += merged[i * spatial + s];
      features[i] = static_cast<f32>(acc / static_cast<f64>(spatial));
    }
    Linear& fc = model_.classifier();
    return matmul(layers_.at(&fc), features, fc.bias().value.data());
  }

  bool exact() const { return exact_; }
  f64 macs() const { return macs_; }
  f64 bytes() const { return bytes_; }

 private:
  struct Deployed {
    std::string name;
    bool sram = false;
    const QuantizedNmMatrix* w = nullptr;
    i64 k = 0;  ///< logical reduction length
    f32 act_scale = 1.0f;
    i64 handle = -1;
    std::vector<SramPeTile> sram_tiles;
    std::vector<MramPeTile> mram_tiles;
    std::vector<const SramPeTile*> sram_ptrs;
    std::vector<const MramPeTile*> mram_ptrs;
  };

  static HybridCoreOptions raw_core_options() {
    HybridCoreOptions options;
    options.backend = KernelBackend::kRaw;
    return options;
  }

  /// `layer` is a Conv2d or Linear: the executor keys its calibration
  /// table by that pointer.
  template <typename L>
  void add(L* layer, const std::string& name, bool sram,
           const PimRepNetExecutor& exec, const DeploymentImage& image) {
    Deployed d;
    d.name = name;
    d.sram = sram;
    d.w = &image.get(name);
    d.k = layer->weight().value.shape()[1];
    d.act_scale = std::max(exec.input_amax().at(layer), 1e-6f) / 127.0f;
    if (sram) {
      d.sram_tiles = map_to_sram_pes(*d.w);
      for (const auto& tile : d.sram_tiles) d.sram_ptrs.push_back(&tile);
      d.handle = core_.deploy_sram(*d.w);
    } else {
      d.mram_tiles = map_to_mram_pes(*d.w);
      for (const auto& tile : d.mram_tiles) d.mram_ptrs.push_back(&tile);
      d.handle = core_.deploy_mram(*d.w);
    }
    layers_.emplace(layer, std::move(d));
  }

  template <typename F>
  void timed(f64& acc, const std::string& name, const char* layer, F&& fn) {
    const f64 t0 = monotonic_now_us();
    fn();
    const f64 t1 = monotonic_now_us();
    acc += t1 - t0;
    tracer_.record(name, layer, t0, t1);
  }

  /// y[P x out] = dequant(matmul(quant(rows[P x K]))) (+ bias).
  Tensor matmul(Deployed& d, const Tensor& rows, const f32* bias) {
    const i64 p = rows.shape()[0], padded = d.w->dense_rows(),
              cols = d.w->cols();
    std::vector<i8> codes(static_cast<size_t>(p * padded));
    QuantParams qp;
    qp.scale = d.act_scale;
    timed(t_->quantize, d.name + " quantize", "kernels", [&] {
      quantize_activations(rows.data(), p, d.k, padded, qp, codes.data(),
                           nullptr);
    });
    arena_.reset();
    FlatCsc flat;
    timed(t_->flat_build, d.name + " flat_csc", "kernels", [&] {
      flat = d.sram
                 ? build_flat_csc_sram(d.sram_ptrs, cols, padded, arena_)
                 : build_flat_csc_mram(d.mram_ptrs, cols, padded, arena_);
    });
    std::vector<i32> raw(static_cast<size_t>(p * cols));
    timed(t_->csc_matmul, d.name + " csc_matmul", "kernels", [&] {
      raw_csc_matmul(flat, codes, p, raw, arena_, nullptr);
    });
    const f64 entries = static_cast<f64>(flat.col_ptr[cols]);
    macs_ += entries * p;
    bytes_ += static_cast<f64>(p * padded) + entries * 5.0 +
              static_cast<f64>((cols + 1) * 8 + p * cols * 4);
    std::vector<i32> core_out;
    timed(t_->arch_matmul, d.name + " core.matmul", "arch",
          [&] { core_out = core_.matmul(d.handle, codes, p); });
    exact_ = exact_ && core_out == raw;
    Tensor y(Shape{p, cols});
    timed(t_->dequant, d.name + " dequant", "kernels", [&] {
      dequantize_outputs(raw.data(), p, cols, d.act_scale * d.w->scale(),
                         bias, y.data(), nullptr);
    });
    if (modeled_images_ > 0) modeled_walk(d, codes, p);
    return y;
  }

  /// The modeled PE walks over the rows of the first modeled_images_.
  void modeled_walk(const Deployed& d, const std::vector<i8>& codes,
                    i64 rows) {
    const i64 padded = d.w->dense_rows();
    const i64 n = rows / batch_ * modeled_images_;
    PeEventCounts& events = d.sram ? modeled_->sram : modeled_->mram;
    timed(modeled_->us, d.name + " modeled", "kernels", [&] {
      for (i64 r = 0; r < n; ++r) {
        const std::span<const i8> row(codes.data() + r * padded,
                                      static_cast<size_t>(padded));
        for (const SramPeTile* tile : d.sram_ptrs)
          modeled_sram_matvec(*tile, row, events);
        for (const MramPeTile* tile : d.mram_ptrs)
          modeled_mram_matvec(*tile, row, events);
      }
    });
  }

  Tensor conv_forward(Conv2d& conv, const Tensor& x) {
    Deployed& d = layers_.at(&conv);
    const Conv2dGeometry& g = conv.geometry();
    const i64 n = x.shape()[0], ho = g.out_dim(x.shape()[2]),
              wo = g.out_dim(x.shape()[3]), spatial = ho * wo;
    Tensor cols, rows;
    timed(t_->im2col, d.name + " im2col", "tensor",
          [&] { cols = im2col(x, g); });
    timed(t_->transpose, d.name + " transpose", "tensor",
          [&] { rows = cols.transposed(); });
    const Tensor flat = matmul(d, rows, nullptr);
    const i64 out_ch = g.out_channels;
    Tensor y(Shape{n, out_ch, ho, wo});
    for (i64 img = 0; img < n; ++img)  // NCHW scatter (periphery)
      for (i64 oc = 0; oc < out_ch; ++oc) {
        const f32 b = conv.has_bias() ? conv.bias().value[oc] : 0.0f;
        for (i64 s = 0; s < spatial; ++s)
          y[(img * out_ch + oc) * spatial + s] =
              flat[(img * spatial + s) * out_ch + oc] + b;
      }
    return y;
  }

  Tensor residual(ResidualBlock& block, const Tensor& x) {
    Tensor main = conv_forward(block.conv1(), x);
    main = relu(block.bn1().forward(main, false));
    main = conv_forward(block.conv2(), main);
    main = block.bn2().forward(main, false);
    Tensor shortcut = x;
    if (block.has_projection()) {
      shortcut = conv_forward(block.projection(), x);
      shortcut = block.projection_bn().forward(shortcut, false);
    }
    main += shortcut;
    return relu(std::move(main));
  }

  Tensor rep(RepModule& module, const Tensor& x) {
    Tensor y = x;
    if (module.has_pool()) y = module.pool().forward(x, false);
    y = relu(conv_forward(module.reduce(), y));
    return conv_forward(module.expand(), y);
  }

  RepNetModel& model_;
  Tracer& tracer_;
  HybridCore core_;
  KernelArena arena_;
  std::unordered_map<const void*, Deployed> layers_;
  PhaseTimes* t_ = nullptr;
  ModeledTotals* modeled_ = nullptr;
  i64 modeled_images_ = 0;
  i64 batch_ = 1;
  f64 macs_ = 0.0, bytes_ = 0.0;
  bool exact_ = true;
};

}  // namespace

ProbeReport run_probes(const WorkloadConfig& cfg, RepNetModel& model,
                       const Dataset& calibration, const Dataset& pool,
                       Tracer& tracer) {
  ProbeReport report;
  auto& m = report.metrics;
  const i64 batch = cfg.max_batch_rows;
  const Tensor images = pool.batch_images(0, batch);

  PimRepNetExecutor exec(model, calibration, executor_options());
  const auto deploy_ms = [&](const char* name, auto&& fn) {
    return std::pair<f64, std::string>{
        median_us(tracer, name, "deploy", kReps, fn) / 1e3, "ms"};
  };
  m["deploy.evaluate_ms"] =
      deploy_ms("deploy.evaluate", [&] { exec.evaluate(calibration, 16); });
  DeploymentImage image;
  m["deploy.export_image_ms"] =
      deploy_ms("deploy.export_image", [&] { image = exec.export_image(); });
  report.image = std::make_shared<const DeploymentImage>(image);
  std::unique_ptr<PimRepNetExecutor> clone;
  m["deploy.clone_with_image_ms"] =
      deploy_ms("deploy.clone_with_image",
                [&] { clone = exec.clone_with_image(report.image); });
  bool verified = true;
  m["deploy.verify_ms"] = deploy_ms("deploy.verify", [&] {
    verified = verified && clone->verify_against(image).empty();
  });

  // The lane's in-PIM head step, on the lane's batch of pooled features.
  HybridCore head_core;
  PimLinearTrainer head(head_core, model.feature_dim(), kClasses,
                        PimTrainerOptions{.lr = 0.15f, .nm = {}, .seed = 1});
  head.set_state(model.classifier().weight().value,
                 model.classifier().bias().value);
  const Tensor lane_x = pool.batch_images(0, kLaneBatch);
  const std::vector<i32> lane_y = pool.batch_labels(0, kLaneBatch);
  const Tensor features = model.forward_features(lane_x, false);
  m["deploy.head_train_step_ms"] = deploy_ms(
      "deploy.head_train_step", [&] { head.train_step(features, lane_y); });

  // Each repetition times the executor's real forward, then replays it.
  // nn.periphery_us is the forward minus the replayed phases it runs, so
  // it covers the executor's own BN, ReLU, pool, residual and connector
  // adds, NCHW scatter and dispatch, not a copy of them.
  LayerReplay replay(model, exec, image, tracer);
  std::vector<f64> forward, im2col, transpose, quantize, flat, csc, dequant,
      arch, periphery, modeled_us;
  ModeledTotals modeled;
  bool exact = verified;
  const f64 b = static_cast<f64>(batch);
  const i64 sample = std::min(batch, kSampleImages);
  for (int rep = 0; rep < kReps; ++rep) {
    const f64 t0 = monotonic_now_us();
    const Tensor logits = exec.forward(images);
    const f64 t1 = monotonic_now_us();
    tracer.record("deploy.forward", "deploy", t0, t1);
    PhaseTimes t;
    ModeledTotals walk;
    const Tensor out = replay.forward(images, sample, t, walk);
    exact = exact && same_bits(out, logits);
    if (rep == 0) modeled = walk;
    exact = exact && walk.sram.cycles == modeled.sram.cycles &&
            walk.mram.cycles == modeled.mram.cycles;
    forward.push_back((t1 - t0) / b);
    periphery.push_back((t1 - t0 - t.forward_kernels()) / b);
    modeled_us.push_back(walk.us / static_cast<f64>(sample));
    im2col.push_back(t.im2col / b);
    transpose.push_back(t.transpose / b);
    quantize.push_back(t.quantize / b);
    flat.push_back(t.flat_build / b);
    csc.push_back(t.csc_matmul / b);
    dequant.push_back(t.dequant / b);
    arch.push_back(t.arch_matmul / b);
  }
  report.exact = exact && replay.exact();
  const f64 n = static_cast<f64>(sample);
  m["tensor.im2col_us"] = {median(im2col), "us"};
  m["tensor.transpose_us"] = {median(transpose), "us"};
  m["kernels.quantize_us"] = {median(quantize), "us"};
  m["kernels.flat_csc_build_us"] = {median(flat), "us"};
  m["kernels.csc_matmul_us"] = {median(csc), "us"};
  m["kernels.dequant_us"] = {median(dequant), "us"};
  m["deploy.forward_us_per_image"] = {median(forward), "us"};
  m["kernels.modeled_matvec_us"] = {median(modeled_us), "us"};
  m["kernels.macs_per_image"] = {replay.macs() / b, "computed_MAC"};
  m["kernels.bytes_per_image"] = {replay.bytes() / b, "computed_B"};
  m["arch.matmul_us"] = {median(arch), "us"};
  m["nn.periphery_us"] = {median(periphery), "us"};
  const EnergyModel energy;
  m["sim.cycles.sram"] = {static_cast<f64>(modeled.sram.cycles) / n,
                          "cycles"};
  m["sim.cycles.mram"] = {static_cast<f64>(modeled.mram.cycles) / n,
                          "cycles"};
  m["sim.energy_nj.sram"] = {energy.price(modeled.sram).total().as_nj() / n,
                             "nJ"};
  m["sim.energy_nj.mram"] = {energy.price(modeled.mram).total().as_nj() / n,
                             "nJ"};
  report.sim_cycles_per_image =
      static_cast<f64>(modeled.sram.cycles + modeled.mram.cycles) / n;

  // Rep-path backward at the lane batch (software half of the lane step).
  // Last: training-mode forwards write the model's layer caches.
  const Tensor grad(Shape{kLaneBatch, model.feature_dim()}, 0.01f);
  std::vector<f64> backward;
  for (int rep = 0; rep < kReps; ++rep) {
    model.forward_features(lane_x, true);
    const f64 t0 = monotonic_now_us();
    model.backward_features(grad);
    const f64 t1 = monotonic_now_us();
    tracer.record("nn.rep_backward", "nn", t0, t1);
    backward.push_back(t1 - t0);
  }
  m["nn.rep_backward_ms"] = {median(backward) / 1e3, "ms"};
  return report;
}

}  // namespace e2e

// Single-layer deployment onto the hybrid core: wraps a trained conv or
// linear layer as a quantized, N:M-packed matrix resident in SRAM or MRAM
// sparse PEs, and executes it through the functional PE simulators with
// INT8 activations (symmetric, calibration-scaled).
#pragma once

#include <span>
#include <vector>

#include "arch/accelerator.h"
#include "mapping/model_mapper.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace msh {

/// True if the matrix (groups of M down each column) satisfies <= N
/// non-zeros per aligned group — i.e. it can pack under `cfg` directly.
bool satisfies_nm(const Tensor& matrix, NmConfig cfg);

/// A weight matrix deployed on the core. Handles the PIM orientation
/// ([K x out], reduction on the word lines), zero-padding K to the group
/// size, dense fallback packing (M:M) for layers without an N:M pattern,
/// INT8 activation quantization and INT32->FP32 dequantization.
class PimMatmulLayer {
 public:
  /// `weight` is the layer's [out x K] matrix; `activation_scale` the
  /// calibrated symmetric scale of this layer's inputs. When `preset` is
  /// given, its already-quantized codes are programmed instead of
  /// re-quantizing `weight` — the model-swap / boot-from-flash path. The
  /// packing decision (sparse vs dense fallback) still comes from
  /// `weight`; a preset whose config or shape disagrees with that
  /// decision throws SimulationError.
  PimMatmulLayer(HybridCore& core, const Tensor& weight, NmConfig cfg,
                 PeKind target, f32 activation_scale,
                 const QuantizedNmMatrix* preset = nullptr);

  /// y[B x out] = dequant( PE( quant(x[B x K]) ) ) [+ bias].
  ///
  /// `bias` (length out, optional) is fused into the dequantization loop
  /// so every output element is written exactly once — numerically
  /// identical to dequantizing first and adding bias after (the same two
  /// FP32 roundings in the same order), but parallel-safe: rows never
  /// need a second read-modify-write pass.
  ///
  /// Quantize and dequantize shard across the core's intra-op pool when
  /// one is attached; both loops are element-independent, so the result
  /// is bit-identical to the sequential walk.
  Tensor matmul(const Tensor& x, const Tensor* bias = nullptr);

  /// Codes-level dispatch, the one path every forward takes to the core:
  /// `codes` is [batch x padded_k()] INT8, quantized with
  /// activation_params() and zero in the pad tail. Returns the raw INT32
  /// accumulators [batch x out].
  std::vector<i32> matmul_codes(std::span<const i8> codes, i64 batch);

  /// The core's intra-op pool (null when execution is sequential).
  ThreadPool* intra_op_pool() const { return core_.intra_op_pool(); }

  /// Rewrites the deployment with updated weights (same shape; the N:M
  /// pattern must still hold if the layer deployed sparse). SRAM
  /// deployments only — the continual-learning write path.
  void update(const Tensor& weight);

  /// Replaces the activation scale (e.g. dynamic per-batch calibration
  /// for error tensors during backprop).
  void set_activation_scale(f32 scale);

  f32 activation_scale() const { return act_params_.scale; }
  const QuantParams& activation_params() const { return act_params_; }
  f32 weight_scale() const { return weight_scale_; }
  /// Dequantization scale of the raw accumulators.
  f32 output_scale() const { return act_params_.scale * weight_scale_; }
  i64 padded_k() const { return padded_k_; }
  NmConfig packed_config() const { return packed_cfg_; }
  bool deployed_sparse() const { return deployed_sparse_; }
  i64 stored_slots() const { return stored_slots_; }
  i64 handle() const { return handle_; }

  /// The as-programmed quantized matrix (golden copy, serialization /
  /// verify source). Physical PE cells may have drifted since (faults);
  /// this copy has not.
  const QuantizedNmMatrix& deployed_matrix() const { return deployed_; }

 private:
  HybridCore& core_;
  i64 handle_ = -1;
  i64 k_ = 0;         ///< logical reduction length
  i64 padded_k_ = 0;  ///< padded to a multiple of the group size
  i64 out_ = 0;
  NmConfig packed_cfg_;
  bool deployed_sparse_ = false;
  QuantParams act_params_;
  f32 weight_scale_ = 1.0f;
  i64 stored_slots_ = 0;
  QuantizedNmMatrix deployed_;
};

/// A conv layer on the hardware, lowered in INT8 (DESIGN §5i): each input
/// activation is quantized once, an INT8 gather writes every output
/// position's receptive field as one PE input row, and one fused pass
/// dequantizes, adds the bias digitally and scatters to NCHW. Bit-identical
/// to quantizing the float im2col matrix, because quantize is elementwise
/// and maps the 0.0f padding fill to code 0.
class PimConv {
 public:
  PimConv(HybridCore& core, Conv2d& conv, NmConfig cfg, PeKind target,
          f32 activation_scale, const QuantizedNmMatrix* preset = nullptr);

  /// x: [B, C, H, W] float activations -> [B, out, Ho, Wo]. Reuses the
  /// layer's code buffers, so calls must not overlap.
  Tensor forward(const Tensor& x);

  const PimMatmulLayer& matmul_layer() const { return matmul_; }

 private:
  Conv2dGeometry geom_;
  PimMatmulLayer matmul_;
  Tensor bias_;                   ///< [out] or empty
  std::vector<i8> input_codes_;  ///< zero row, then [B*C*H, W + 2*pad]
  std::vector<i8> row_codes_;    ///< [positions, padded_k] PE input rows
};

/// A fully-connected layer on the hardware.
class PimLinear {
 public:
  PimLinear(HybridCore& core, Linear& linear, NmConfig cfg, PeKind target,
            f32 activation_scale, const QuantizedNmMatrix* preset = nullptr);

  /// x: [B, in] -> [B, out].
  Tensor forward(const Tensor& x);

  const PimMatmulLayer& matmul_layer() const { return matmul_; }

 private:
  PimMatmulLayer matmul_;
  Tensor bias_;
};

}  // namespace msh

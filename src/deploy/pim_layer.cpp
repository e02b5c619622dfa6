#include "deploy/pim_layer.h"

#include <cstring>
#include <string>

#include "kernels/quant_kernels.h"

namespace msh {

bool satisfies_nm(const Tensor& matrix, NmConfig cfg) {
  if (!cfg.valid() || matrix.shape().rank() != 2) return false;
  const i64 rows = matrix.shape()[0], cols = matrix.shape()[1];
  if (rows % cfg.m != 0) return false;
  for (i64 c = 0; c < cols; ++c) {
    for (i64 g = 0; g < rows / cfg.m; ++g) {
      i32 nz = 0;
      for (i64 i = 0; i < cfg.m; ++i) {
        if (matrix[(g * cfg.m + i) * cols + c] != 0.0f) ++nz;
      }
      if (nz > cfg.n) return false;
    }
  }
  return true;
}

namespace {

/// Pads a [K x out] matrix with zero rows to a multiple of `multiple`.
Tensor pad_rows(const Tensor& matrix, i64 multiple) {
  const i64 k = matrix.shape()[0], out = matrix.shape()[1];
  const i64 padded = (k + multiple - 1) / multiple * multiple;
  if (padded == k) return matrix;
  Tensor result(Shape{padded, out});
  for (i64 i = 0; i < k * out; ++i) result[i] = matrix[i];
  return result;
}

/// Writes the PE input rows of the conv output rows [begin, end), each
/// one (image, oy) pair of `wo` positions. `codes` holds the quantized
/// input as [N*C*H] rows of `wp` = W + 2*padding codes, zero in the
/// horizontal padding; `zero_row` stands in for rows above and below the
/// input. A position's row holds its receptive field in im2col order
/// (channel, ky, kx), then the zero pad tail up to `padded_k`: code 0 is
/// what the float lowering's 0.0f padding fill quantizes to. Plain
/// by-value arguments keep the i8 stores from aliasing the loop bounds.
void gather_rows(const i8* codes, const i8* zero_row, i64 c, i64 h, i64 wp,
                 Conv2dGeometry g, i64 ho, i64 wo, i64 padded_k, i64 begin,
                 i64 end, i8* rows) {
  const i64 kk = g.kernel, k = c * kk * kk;
  for (i64 r = begin; r < end; ++r) {
    const i64 img = r / ho, oy = r % ho;
    i8* block = rows + r * wo * padded_k;  // [wo, padded_k]
    i64 tap = 0;
    for (i64 ch = 0; ch < c; ++ch) {
      for (i64 ky = 0; ky < kk; ++ky) {
        const i64 iy = oy * g.stride - g.padding + ky;
        const i8* src = iy >= 0 && iy < h
                            ? codes + ((img * c + ch) * h + iy) * wp
                            : zero_row;
        for (i64 kx = 0; kx < kk; ++kx, ++tap) {
          for (i64 ox = 0; ox < wo; ++ox)
            block[ox * padded_k + tap] = src[ox * g.stride + kx];
        }
      }
    }
    for (i64 ox = 0; ox < wo && k < padded_k; ++ox)
      std::memset(block + ox * padded_k + k, 0,
                  static_cast<size_t>(padded_k - k));
  }
}

}  // namespace

PimMatmulLayer::PimMatmulLayer(HybridCore& core, const Tensor& weight,
                               NmConfig cfg, PeKind target,
                               f32 activation_scale,
                               const QuantizedNmMatrix* preset)
    : core_(core) {
  MSH_REQUIRE(weight.shape().rank() == 2);
  MSH_REQUIRE(activation_scale > 0.0f);
  out_ = weight.shape()[0];
  k_ = weight.shape()[1];

  // PIM orientation: reduction dimension on the word lines.
  Tensor mapped = weight.transposed();  // [K x out]

  // Choose the packing: the requested N:M if the trained pattern holds,
  // otherwise the dense M:M fallback (every slot stored, index = offset).
  Tensor padded = pad_rows(mapped, cfg.m);
  if (satisfies_nm(padded, cfg)) {
    packed_cfg_ = cfg;
    deployed_sparse_ = true;
  } else {
    packed_cfg_ = NmConfig{4, 4};
    padded = pad_rows(mapped, packed_cfg_.m);
    deployed_sparse_ = false;
  }
  padded_k_ = padded.shape()[0];

  if (preset != nullptr) {
    if (preset->config().n != packed_cfg_.n ||
        preset->config().m != packed_cfg_.m ||
        preset->dense_rows() != padded_k_ || preset->cols() != out_) {
      throw SimulationError(
          "PimMatmulLayer: preset matrix does not fit the layer: preset " +
          std::to_string(preset->config().n) + ":" +
          std::to_string(preset->config().m) + " [" +
          std::to_string(preset->dense_rows()) + " x " +
          std::to_string(preset->cols()) + "], layer expects " +
          std::to_string(packed_cfg_.n) + ":" +
          std::to_string(packed_cfg_.m) + " [" + std::to_string(padded_k_) +
          " x " + std::to_string(out_) + "]");
    }
    deployed_ = *preset;
  } else {
    const NmPackedMatrix packed = NmPackedMatrix::pack(padded, packed_cfg_);
    deployed_ = QuantizedNmMatrix::from_packed(packed);
  }
  weight_scale_ = deployed_.scale();
  stored_slots_ = deployed_.packed_rows() * deployed_.cols();

  act_params_.scale = activation_scale;
  handle_ = target == PeKind::kSram ? core_.deploy_sram(deployed_)
                                    : core_.deploy_mram(deployed_);
}

void PimMatmulLayer::update(const Tensor& weight) {
  MSH_REQUIRE(weight.shape() == Shape({out_, k_}));
  Tensor padded = pad_rows(weight.transposed(), packed_cfg_.m);
  MSH_REQUIRE(satisfies_nm(padded, packed_cfg_));
  const NmPackedMatrix packed = NmPackedMatrix::pack(padded, packed_cfg_);
  deployed_ = QuantizedNmMatrix::from_packed(packed);
  weight_scale_ = deployed_.scale();
  core_.redeploy_sram(handle_, deployed_);
}

void PimMatmulLayer::set_activation_scale(f32 scale) {
  MSH_REQUIRE(scale > 0.0f);
  act_params_.scale = scale;
}

Tensor PimMatmulLayer::matmul(const Tensor& x, const Tensor* bias) {
  MSH_REQUIRE(x.shape().rank() == 2);
  MSH_REQUIRE(x.shape()[1] == k_);
  MSH_REQUIRE(bias == nullptr || bias->empty() ||
              static_cast<i64>(bias->numel()) == out_);
  const i64 batch = x.shape()[0];
  const bool add_bias = bias != nullptr && !bias->empty();
  ThreadPool* pool = core_.intra_op_pool();

  // The float<->INT8 boundary is shared kernel code (kernels/
  // quant_kernels.h) so both compute backends quantize and dequantize
  // identically — backend bit-exactness holds end to end.
  std::vector<i8> codes(static_cast<size_t>(batch * padded_k_));
  quantize_activations(x.data(), batch, k_, padded_k_, act_params_,
                       codes.data(), pool);

  const std::vector<i32> raw = matmul_codes(codes, batch);
  Tensor y(Shape{batch, out_});
  dequantize_outputs(raw.data(), batch, out_, output_scale(),
                     add_bias ? bias->data() : nullptr, y.data(), pool);
  return y;
}

std::vector<i32> PimMatmulLayer::matmul_codes(std::span<const i8> codes,
                                              i64 batch) {
  MSH_REQUIRE(static_cast<i64>(codes.size()) == batch * padded_k_);
  return core_.matmul(handle_, codes, batch);
}

PimConv::PimConv(HybridCore& core, Conv2d& conv, NmConfig cfg, PeKind target,
                 f32 activation_scale, const QuantizedNmMatrix* preset)
    : geom_(conv.geometry()),
      matmul_(core, conv.weight().value, cfg, target, activation_scale,
              preset) {
  if (conv.has_bias()) bias_ = conv.bias().value;
}

Tensor PimConv::forward(const Tensor& x) {
  MSH_REQUIRE(x.shape().rank() == 4);
  const i64 n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
            w = x.shape()[3];
  MSH_REQUIRE(c == geom_.in_channels);
  const i64 ho = geom_.out_dim(h), wo = geom_.out_dim(w);
  MSH_REQUIRE(ho > 0 && wo > 0);
  const i64 padded_k = matmul_.padded_k(), spatial = ho * wo,
            positions = n * spatial;
  ThreadPool* pool = matmul_.intra_op_pool();

  // Quantize every input activation once, one image row per code row,
  // zero-padded horizontally; one zero row in front stands in for the
  // vertical padding. Quantize is elementwise, so gathering these codes
  // equals quantizing the gathered floats.
  const i64 pad = geom_.padding, wp = w + 2 * pad;
  input_codes_.resize(static_cast<size_t>(wp + pad + n * c * h * wp));
  i8* zero_row = input_codes_.data();
  std::memset(zero_row, 0, static_cast<size_t>(wp + pad));
  quantize_activations(x.data(), n * c * h, w, wp,
                       matmul_.activation_params(), zero_row + wp + pad,
                       pool);

  // INT8 im2col straight into the PE layout: one [padded_k] row per output
  // position, sharded over output rows so each is written by one lane.
  row_codes_.resize(static_cast<size_t>(positions * padded_k));
  i8* rows = row_codes_.data();
  const Conv2dGeometry g = geom_;
  parallel_for(pool, n * ho, [=](i64 begin, i64 end) {
    gather_rows(zero_row + wp, zero_row, c, h, wp, g, ho, wo, padded_k,
                begin, end, rows);
  });

  const std::vector<i32> raw = matmul_.matmul_codes(
      std::span<const i8>(rows, static_cast<size_t>(positions * padded_k)),
      positions);

  // Dequantize + bias + NCHW scatter in one pass, sharded over (image,
  // output channel) planes so each plane is written by exactly one lane.
  // Same two FP32 ops in the same order as a dequantize pass followed by a
  // bias-adding scatter; a missing bias adds +0.0f, as that scatter did.
  const i64 out_ch = geom_.out_channels;
  const f32 scale = matmul_.output_scale();
  const f32* bias = bias_.empty() ? nullptr : bias_.data();
  const i32* acc = raw.data();
  Tensor y(Shape{n, out_ch, ho, wo});
  f32* out = y.data();
  parallel_for(pool, n * out_ch, [=](i64 begin, i64 end) {
    for (i64 plane = begin; plane < end; ++plane) {
      const i64 img = plane / out_ch, oc = plane % out_ch;
      const f32 b = bias != nullptr ? bias[oc] : 0.0f;
      const i32* src = acc + img * spatial * out_ch + oc;
      f32* dst = out + plane * spatial;
      for (i64 s = 0; s < spatial; ++s) {
        const f32 v = scale * static_cast<f32>(src[s * out_ch]);
        dst[s] = v + b;
      }
    }
  });
  return y;
}

PimLinear::PimLinear(HybridCore& core, Linear& linear, NmConfig cfg,
                     PeKind target, f32 activation_scale,
                     const QuantizedNmMatrix* preset)
    : matmul_(core, linear.weight().value, cfg, target, activation_scale,
              preset) {
  bias_ = linear.bias().value;
}

Tensor PimLinear::forward(const Tensor& x) {
  // Bias rides inside the dequantization loop (one write per output
  // element, every batch row handled in its own lane) instead of a
  // second read-modify-write sweep after the batch loop.
  return matmul_.matmul(x, &bias_);
}

}  // namespace msh

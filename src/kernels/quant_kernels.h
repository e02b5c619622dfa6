// Activation quantize / output dequantize, shared by BOTH backends: the
// float<->INT8 boundary must be a single implementation so backend
// choice can never move a value across a rounding edge. Kept scalar on
// purpose — vectorizing the float path would expose it to FMA
// contraction differences between compilers. It is not a small cost:
// quantizing a conv's 9x-duplicated float im2col matrix took ~27% of a
// raw forward, more than the SIMD matmul, so PimConv quantizes each
// input activation once and gathers the INT8 codes.
#pragma once

#include "common/thread_pool.h"
#include "common/types.h"
#include "quant/quant.h"

namespace msh {

/// Quantizes a [batch x k] float activation block into the padded INT8
/// layout [batch x padded_k] the PE arrays consume (pad tail zeroed).
/// Row-sharded over `pool`: each row's codes are written by exactly one
/// lane, so the parallel result is bit-identical to the sequential loop.
void quantize_activations(const f32* x, i64 batch, i64 k, i64 padded_k,
                          const QuantParams& params, i8* codes,
                          ThreadPool* pool);

/// Dequantizes raw INT32 accumulators [batch x out] into floats with an
/// optional fused bias (`bias` null skips it). Same sharding contract.
void dequantize_outputs(const i32* raw, i64 batch, i64 out, f32 scale,
                        const f32* bias, f32* y, ThreadPool* pool);

}  // namespace msh

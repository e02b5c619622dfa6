// Two-tier executor differential suite (DESIGN §5i): the raw SIMD
// backend must be bit-identical to the modeled backend on every forward
// — across shapes, sparsity patterns, PE kinds, protection modes and
// thread counts — and must export byte-identical DeploymentImages, while
// reporting zero modeled metrics. Also covers composition with fault
// injection, ECC scrub, clone/heal plumbing and the zero-copy batch
// assembly the raw path serves through.
#include <gtest/gtest.h>

#include <bit>

#include "deploy/pim_executor.h"
#include "kernels/quant_kernels.h"
#include "kernels/simd.h"
#include "runtime/dynamic_batcher.h"
#include "sparse/nm_mask.h"
#include "workloads/task_suite.h"

namespace msh {
namespace {

Tensor sparse_weight(i64 out, i64 k, NmConfig cfg, u64 seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(Shape{out, k}, rng);
  NmMask mask = select_nm_mask(w, cfg, GroupAxis::kCols);
  apply_mask(w, mask);
  return w;
}

void expect_tensors_bit_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (i64 i = 0; i < a.numel(); ++i) {
    // Bit patterns, not float equality: -0.0 vs +0.0 is a divergence.
    ASSERT_EQ(std::bit_cast<u32>(a[i]), std::bit_cast<u32>(b[i]))
        << "diverged at flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// One differential case: the same weights on a modeled core and a raw
/// core, the same activations through both layers, bit-equal outputs.
void expect_backends_match(const Tensor& w, NmConfig cfg, PeKind kind,
                           i64 threads, i64 batch, u64 seed) {
  const i64 k = w.shape()[1];
  HybridCore modeled_core;
  HybridCoreOptions raw_options;
  raw_options.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_options);
  ThreadPool pool(threads);
  if (threads > 1) {
    modeled_core.set_intra_op_pool(&pool);
    raw_core.set_intra_op_pool(&pool);
  }
  PimMatmulLayer modeled_layer(modeled_core, w, cfg, kind, 0.05f);
  PimMatmulLayer raw_layer(raw_core, w, cfg, kind, 0.05f);

  // Forward must not touch modeled metrics on the raw backend; deploy
  // accounting (load/program events) is state, not compute, and stays.
  const PeEventCounts deploy_events = raw_core.pe_events();

  Rng rng(seed);
  const Tensor x = Tensor::randn(Shape{batch, k}, rng, 0.0f, 1.0f);
  const Tensor y_modeled = modeled_layer.matmul(x);
  const Tensor y_raw = raw_layer.matmul(x);
  expect_tensors_bit_equal(y_modeled, y_raw);
  EXPECT_GT(modeled_core.last_makespan(), 0);

  EXPECT_EQ(raw_core.last_makespan(), 0);
  EXPECT_EQ(raw_core.last_utilization(), 0.0);
  EXPECT_EQ(raw_core.shared_accumulator_ops(), 0);
  const PeEventCounts after = raw_core.pe_events();
  EXPECT_EQ(after.cycles, deploy_events.cycles);
  EXPECT_EQ(after.buffer_bits_read, deploy_events.buffer_bits_read);
  EXPECT_EQ(after.sram_array_cycles, deploy_events.sram_array_cycles);
  EXPECT_EQ(after.mram_row_reads, deploy_events.mram_row_reads);
}

TEST(KernelBackends, RandomizedShapesSparsitiesThreads) {
  const NmConfig cfgs[] = {kSparse1of4, kSparse1of8, NmConfig{2, 4}};
  Rng rng(2024);
  for (i64 i = 0; i < 18; ++i) {
    const NmConfig cfg = cfgs[i % 3];
    const i64 out = rng.uniform_int(3, 24);
    const i64 k = cfg.m * rng.uniform_int(4, 20);
    const PeKind kind = (i % 2 == 0) ? PeKind::kSram : PeKind::kMram;
    const i64 threads = (i % 4 == 3) ? 3 : 1;
    const i64 batch = rng.uniform_int(1, 13);
    SCOPED_TRACE("case " + std::to_string(i) + ": " +
                 std::to_string(cfg.n) + ":" + std::to_string(cfg.m) +
                 " [" + std::to_string(out) + "x" + std::to_string(k) +
                 "] " + (kind == PeKind::kSram ? "sram" : "mram") +
                 " threads=" + std::to_string(threads) +
                 " batch=" + std::to_string(batch));
    const Tensor w = sparse_weight(out, k, cfg, 500 + i);
    expect_backends_match(w, cfg, kind, threads, batch, 9000 + i);
  }
}

TEST(KernelBackends, DenseFallbackMatches) {
  // Unpruned weights fall back to dense M:M packing; the raw flattening
  // must follow the same path.
  Rng rng(31);
  const Tensor w = Tensor::randn(Shape{7, 36}, rng);  // 36 pads to 1:4
  expect_backends_match(w, kSparse1of4, PeKind::kSram, 1, 5, 77);
  expect_backends_match(w, kSparse1of4, PeKind::kMram, 3, 5, 78);
}

TEST(KernelBackends, MatvecPathMatches) {
  const Tensor w = sparse_weight(9, 64, kSparse1of4, 41);
  HybridCore modeled_core;
  HybridCoreOptions raw_options;
  raw_options.backend = KernelBackend::kRaw;
  HybridCore raw_core(raw_options);
  PimMatmulLayer modeled_layer(modeled_core, w, kSparse1of4, PeKind::kSram,
                               0.05f);
  PimMatmulLayer raw_layer(raw_core, w, kSparse1of4, PeKind::kSram, 0.05f);
  Rng rng(43);
  const Tensor x = Tensor::randn(Shape{1, 64}, rng, 0.0f, 1.0f);
  expect_tensors_bit_equal(modeled_layer.matmul(x), raw_layer.matmul(x));
}

TEST(KernelArenaTest, ReusesOneSlabAfterReset) {
  KernelArena arena;
  for (int round = 0; round < 3; ++round) {
    arena.reset();
    auto a = arena.alloc<i32>(1000);
    auto b = arena.alloc<i8>(3333);
    a[999] = 7;
    b[3332] = 1;
    EXPECT_EQ(a.size(), 1000u);
  }
  const size_t reserved = arena.bytes_reserved();
  arena.reset();
  (void)arena.alloc<i32>(1000);
  (void)arena.alloc<i8>(3333);
  // Steady state: no new slabs once the high-water mark is learned.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(SimdTest, MultiplyAccumulateMatchesScalarWithWrap) {
  Rng rng(7);
  std::vector<i16> x(203);
  for (i16& v : x) v = static_cast<i16>(rng.uniform_int(-128, 127));
  std::vector<i32> acc(x.size()), ref(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    // Seed accumulators near INT32_MAX so the vector path's wrap
    // behavior is exercised, not just the happy range.
    acc[i] = ref[i] = 0x7ffffff0 + static_cast<i32>(i % 7);
  }
  const i32 w = -128;
  simd::multiply_accumulate(acc.data(), w, x.data(),
                            static_cast<i64>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    ref[i] = static_cast<i32>(static_cast<u32>(ref[i]) +
                              static_cast<u32>(w * x[i]));
    ASSERT_EQ(acc[i], ref[i]) << "lane " << i << " on " << simd::kIsa;
  }
}

// ----- fused INT8 conv lowering vs the float lowering it replaced -----
//
// Raw vs modeled cannot catch a lowering bug: both backends run the same
// PimConv::forward. So the conv is checked against an independent
// reference rebuilt from public functions.

constexpr f32 kConvActScale = 0.25f;  // power of two: v / scale is exact

/// The float conv lowering: im2col -> transpose -> quantize -> core
/// matmul -> dequantize -> bias + NCHW scatter.
Tensor reference_conv(HybridCore& core, const PimMatmulLayer& layer,
                      Conv2d& conv, const Tensor& x) {
  const Conv2dGeometry& g = conv.geometry();
  const i64 n = x.shape()[0], ho = g.out_dim(x.shape()[2]),
            wo = g.out_dim(x.shape()[3]), spatial = ho * wo,
            positions = n * spatial;
  const Tensor rows = im2col(x, g).transposed();  // [positions, K]
  const i64 k = rows.shape()[1], padded_k = layer.padded_k(),
            out = g.out_channels;
  std::vector<i8> codes(static_cast<size_t>(positions * padded_k));
  QuantParams params;
  params.scale = layer.activation_scale();
  quantize_activations(rows.data(), positions, k, padded_k, params,
                       codes.data(), nullptr);
  const std::vector<i32> raw = core.matmul(layer.handle(), codes, positions);
  Tensor flat(Shape{positions, out});
  dequantize_outputs(raw.data(), positions, out,
                     layer.activation_scale() * layer.weight_scale(),
                     nullptr, flat.data(), nullptr);
  Tensor y(Shape{n, out, ho, wo});
  for (i64 img = 0; img < n; ++img) {
    for (i64 oc = 0; oc < out; ++oc) {
      const f32 b = conv.has_bias() ? conv.bias().value[oc] : 0.0f;
      for (i64 s = 0; s < spatial; ++s) {
        y[(img * out + oc) * spatial + s] =
            flat[(img * spatial + s) * out + oc] + b;
      }
    }
  }
  return y;
}

/// Activations mixing the quantizer's edge cases: signed zeros, exact
/// half-code ties, values past the +-127 clamp, and ordinary values.
Tensor lowering_input(const Shape& shape, u64 seed) {
  Rng rng(seed);
  Tensor x(shape);
  for (i64 i = 0; i < x.numel(); ++i) {
    const f32 sign = (i / 5) % 2 == 0 ? 1.0f : -1.0f;
    switch (i % 5) {
      case 0:
        x[i] = sign * 0.0f;
        break;
      case 1:
        x[i] = (static_cast<f32>(rng.uniform_int(-130, 129)) + 0.5f) *
               kConvActScale;
        break;
      case 2:
        x[i] = sign * (127.0f * kConvActScale +
                       static_cast<f32>(rng.uniform_int(1, 40)));
        break;
      default:
        x[i] = static_cast<f32>(rng.gaussian(0.0, 12.0));
    }
  }
  return x;
}

struct ConvCase {
  i64 kernel = 1, stride = 1, padding = 0;
  i64 in_channels = 3;  ///< 3: K = 3 or 27 pads to the group size of 4
  bool sparse = false;  ///< 1:4 pattern, else the dense M:M fallback
  bool bias = false;
};

Conv2d make_conv(const ConvCase& cc, u64 seed) {
  Rng rng(seed);
  Conv2d conv(Conv2dGeometry{.in_channels = cc.in_channels,
                             .out_channels = 5,
                             .kernel = cc.kernel,
                             .stride = cc.stride,
                             .padding = cc.padding},
              rng, cc.bias);
  if (cc.sparse) {
    // One weight per aligned group of 4 along K, the partial last group
    // included, so the pattern holds on the zero-padded matrix.
    Tensor w = conv.weight().value;
    const i64 k = w.shape()[1];
    for (i64 i = 0; i < w.numel(); ++i) {
      if (i % k % 4 != i / k % 4) w[i] = 0.0f;
    }
    conv.set_weight(w);
  }
  if (cc.bias) conv.bias().value = Tensor::randn(Shape{5}, rng);
  return conv;
}

/// Deploys `conv` on a fresh core and checks the fused forward against
/// the reference, a larger batch first and then a smaller one: the reused
/// code buffers must not leak rows from the earlier call.
void expect_conv_matches_reference(const ConvCase& cc, u64 seed,
                                   PeKind kind, KernelBackend backend,
                                   i64 threads) {
  Conv2d conv = make_conv(cc, seed);
  HybridCoreOptions options;
  options.backend = backend;
  HybridCore core(options);
  ThreadPool pool(threads);
  if (threads > 1) core.set_intra_op_pool(&pool);
  PimConv fused(core, conv, kSparse1of4, kind, kConvActScale);
  ASSERT_EQ(fused.matmul_layer().deployed_sparse(), cc.sparse);
  const Conv2dGeometry& g = conv.geometry();
  for (const i64 batch : {3, 1}) {
    const Tensor x =
        lowering_input(Shape{batch, g.in_channels, 7, 6}, seed + batch);
    expect_tensors_bit_equal(
        fused.forward(x), reference_conv(core, fused.matmul_layer(), conv, x));
  }
}

TEST(FusedConvLowering, MatchesFloatLoweringBitForBit) {
  i64 case_id = 0;
  for (const i64 kernel : {1, 3}) {
    for (const i64 stride : {1, 2}) {
      for (const i64 padding : {0, 1}) {
        for (const i64 in_channels : {3, 8}) {
          for (const bool sparse : {false, true}) {
            const ConvCase cc{kernel, stride, padding, in_channels, sparse,
                              /*bias=*/case_id % 2 == 0};
            const PeKind kind =
                case_id / 2 % 2 == 0 ? PeKind::kSram : PeKind::kMram;
            for (const KernelBackend backend :
                 {KernelBackend::kModeled, KernelBackend::kRaw}) {
              for (const i64 threads : {1, 3}) {
                SCOPED_TRACE(
                    "case " + std::to_string(case_id) + ": k" +
                    std::to_string(kernel) + " s" + std::to_string(stride) +
                    " p" + std::to_string(padding) + " c" +
                    std::to_string(in_channels) +
                    (sparse ? " sparse" : " dense") +
                    (cc.bias ? " bias " : " nobias ") +
                    (backend == KernelBackend::kRaw ? "raw" : "modeled") +
                    " threads=" + std::to_string(threads));
                expect_conv_matches_reference(cc, 300 + case_id, kind,
                                              backend, threads);
              }
            }
            ++case_id;
          }
        }
      }
    }
  }
}

TEST(FusedConvLowering, MatchesFloatLoweringAfterFaultsAndScrub) {
  // Faults and a SEC-DED scrub change the live MRAM cells both paths
  // read; the fused lowering must see exactly what the reference sees,
  // on both backends.
  const ConvCase cc{3, 1, 1, 8, /*sparse=*/true, /*bias=*/true};
  Conv2d conv = make_conv(cc, 77);
  for (const KernelBackend backend :
       {KernelBackend::kModeled, KernelBackend::kRaw}) {
    HybridCoreOptions options;
    options.backend = backend;
    HybridCore core(options);
    PimConv fused(core, conv, kSparse1of4, PeKind::kMram, kConvActScale);
    const Tensor x = lowering_input(Shape{2, 8, 6, 6}, 5);
    const Tensor clean = fused.forward(x);

    const HybridCore::NvmCodeView view =
        core.nvm_codes(fused.matmul_layer().handle());
    std::vector<u8> checks;
    for (const i8* cell : view.weights)
      checks.push_back(secded_encode(static_cast<u8>(*cell)));
    Rng fault_rng(11);
    const FaultStats stats = inject_bit_errors(
        view.weights, MtjFaultModel::symmetric(0.02), fault_rng, 8);
    ASSERT_GT(stats.bits_flipped, 0);
    const Tensor faulted = fused.forward(x);
    expect_tensors_bit_equal(
        faulted, reference_conv(core, fused.matmul_layer(), conv, x));
    bool moved = false;
    for (i64 i = 0; i < clean.numel(); ++i) moved |= clean[i] != faulted[i];
    EXPECT_TRUE(moved);

    // Scrub: repair single-bit errors in place; doubles stay corrupted.
    i64 corrected = 0;
    for (size_t i = 0; i < view.weights.size(); ++i) {
      u8 data = static_cast<u8>(*view.weights[i]);
      if (secded_decode(data, checks[i]) == SecDedOutcome::kCorrectedSingle)
        ++corrected;
      *view.weights[i] = static_cast<i8>(data);
    }
    ASSERT_GT(corrected, 0);
    expect_tensors_bit_equal(
        fused.forward(x), reference_conv(core, fused.matmul_layer(), conv, x));
  }
}

// ----- executor-level differential: full model, protection, images ----

class BackendExecutorTest : public ::testing::Test {
 protected:
  static BackboneConfig tiny_backbone() {
    BackboneConfig cfg;
    cfg.stem_channels = 8;
    cfg.stage_channels = {8};
    cfg.blocks_per_stage = {1};
    cfg.stage_strides = {1};
    return cfg;
  }

  static SyntheticSpec tiny_task() {
    SyntheticSpec spec;
    spec.name = "backend-task";
    spec.classes = 3;
    spec.train_per_class = 8;
    spec.test_per_class = 4;
    spec.image_size = 10;
    spec.noise = 0.2f;
    spec.seed = 7;
    return spec;
  }

  static PimExecutorOptions options_for(KernelBackend backend, EccMode ecc,
                                        i64 threads = 1) {
    PimExecutorOptions options;
    options.backend = backend;
    options.ecc = ecc;
    options.intra_op_threads = threads;
    options.calibration_batch = 8;
    options.calibration_batches = 1;
    return options;
  }

  void SetUp() override {
    rng_ = std::make_unique<Rng>(17);
    data_ = make_synthetic_dataset(tiny_task());
    model_ = std::make_unique<RepNetModel>(
        tiny_backbone(),
        RepNetConfig{.bottleneck_divisor = 8, .min_bottleneck = 8}, 3,
        *rng_);
  }

  std::unique_ptr<Rng> rng_;
  TrainTestSplit data_;
  std::unique_ptr<RepNetModel> model_;
};

TEST_F(BackendExecutorTest, ForwardAndImageBitExactPerProtectionMode) {
  const Tensor images = data_.test.batch_images(0, 4);
  for (const EccMode ecc :
       {EccMode::kNone, EccMode::kParity, EccMode::kSecDed}) {
    SCOPED_TRACE("ecc mode " + std::to_string(static_cast<int>(ecc)));
    PimRepNetExecutor modeled(*model_, data_.train,
                              options_for(KernelBackend::kModeled, ecc));
    PimRepNetExecutor raw(*model_, data_.train,
                          options_for(KernelBackend::kRaw, ecc));
    expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));
    // Published images are part of the bit-exactness contract.
    EXPECT_EQ(modeled.export_image().serialize(),
              raw.export_image().serialize());
  }
}

TEST_F(BackendExecutorTest, IntraOpShardingMatchesOnRaw) {
  const Tensor images = data_.test.batch_images(0, 6);
  PimRepNetExecutor modeled(
      *model_, data_.train,
      options_for(KernelBackend::kModeled, EccMode::kNone));
  PimRepNetExecutor raw_seq(
      *model_, data_.train, options_for(KernelBackend::kRaw, EccMode::kNone));
  PimRepNetExecutor raw_par(
      *model_, data_.train,
      options_for(KernelBackend::kRaw, EccMode::kNone, /*threads=*/3));
  const Tensor y = modeled.forward(images);
  expect_tensors_bit_equal(y, raw_seq.forward(images));
  expect_tensors_bit_equal(y, raw_par.forward(images));
}

TEST_F(BackendExecutorTest, FaultInjectionAndScrubCompose) {
  // The raw backend reads the live cells every dispatch, so identical
  // fault injections must corrupt both backends identically, and a
  // repairing scrub must restore both identically.
  const Tensor images = data_.test.batch_images(0, 4);
  PimRepNetExecutor modeled(
      *model_, data_.train,
      options_for(KernelBackend::kModeled, EccMode::kSecDed));
  PimRepNetExecutor raw(*model_, data_.train,
                        options_for(KernelBackend::kRaw, EccMode::kSecDed));

  const MtjFaultModel faults = MtjFaultModel::symmetric(2e-3);
  Rng modeled_rng(99), raw_rng(99);
  modeled.inject_nvm_faults(faults, modeled_rng);
  raw.inject_nvm_faults(faults, raw_rng);
  expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));

  modeled.scrub(/*repair_detected_from_golden=*/true);
  raw.scrub(/*repair_detected_from_golden=*/true);
  expect_tensors_bit_equal(modeled.forward(images), raw.forward(images));
}

TEST_F(BackendExecutorTest, RawReplicaPassesVerifyGateAndClones) {
  const Tensor images = data_.test.batch_images(0, 4);
  PimRepNetExecutor modeled(
      *model_, data_.train,
      options_for(KernelBackend::kModeled, EccMode::kSecDed));
  PimRepNetExecutor raw(*model_, data_.train,
                        options_for(KernelBackend::kRaw, EccMode::kSecDed));
  // The physical read-back probe runs through the raw matvec path and
  // must match the modeled executor's exported image bit-exactly.
  EXPECT_EQ(raw.verify_against(modeled.export_image()), "");
  // Clones (the heal/swap/recovery rebuild path) inherit the backend and
  // stay bit-identical.
  const auto clone = raw.clone();
  expect_tensors_bit_equal(raw.forward(images), clone->forward(images));
  EXPECT_EQ(clone->core().last_makespan(), 0);
}

// ----- zero-copy batch assembly --------------------------------------

detail::PendingRequest make_request(u64 id, i64 rows) {
  detail::PendingRequest request;
  request.id = id;
  request.rows = rows;
  Rng rng(id);
  request.images = Tensor::randn(Shape{rows, 1, 4, 4}, rng);
  return request;
}

TEST(AssembleBatchImages, SingleRequestMovesWithoutCopy) {
  MicroBatch batch;
  batch.requests.push_back(make_request(1, 3));
  batch.rows = 3;
  const f32* payload = batch.requests.front().images.data();
  const f32 first = payload[0];
  assemble_batch_images(batch);
  // Zero-copy: the batch adopted the request's buffer, no reallocation.
  EXPECT_EQ(batch.images.data(), payload);
  EXPECT_EQ(batch.images[0], first);
  EXPECT_TRUE(batch.requests.front().images.empty());
}

TEST(AssembleBatchImages, MultiRequestGathersContiguously) {
  MicroBatch batch;
  batch.requests.push_back(make_request(1, 2));
  batch.requests.push_back(make_request(2, 3));
  batch.rows = 5;
  const Tensor copy0 = batch.requests[0].images;
  const Tensor copy1 = batch.requests[1].images;
  assemble_batch_images(batch);
  ASSERT_EQ(batch.images.shape(), Shape({5, 1, 4, 4}));
  for (i64 i = 0; i < copy0.numel(); ++i) {
    ASSERT_EQ(batch.images[i], copy0[i]);
  }
  for (i64 i = 0; i < copy1.numel(); ++i) {
    ASSERT_EQ(batch.images[copy0.numel() + i], copy1[i]);
  }
  // Multi-request batches keep the originals (needed for retries).
  EXPECT_FALSE(batch.requests[0].images.empty());
}

}  // namespace
}  // namespace msh

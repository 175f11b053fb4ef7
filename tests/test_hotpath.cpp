// Hot-path tests: the ExecutionPlan bit-identity contract (the plan — the
// engine's only forward path — produces exactly the bytes of a layer-by-layer
// reference forward across effect sets, batch shapes, layer ranges and
// serving worker counts), its range execution and opt-in reference pass,
// non-finite input rejection, the Arena workspace semantics (alignment,
// mark/rewind, exhaustion regrow, reset coalescing), the training-gated
// activation caches, and the zero-allocation steady state measured through
// the operator-new interposer.
//
// The ASan+UBSan CI job runs this binary (sanitize matrix covers the arena
// and the interposed allocator paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/effect_pipeline.hpp"
#include "core/effects.hpp"
#include "core/execution_plan.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/activations.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/im2col.hpp"
#include "dnn/models.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "numerics/alloc_counter.hpp"
#include "numerics/arena.hpp"
#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "photonics/microring.hpp"
#include "photonics/wdm.hpp"
#include "serve/serving_runtime.hpp"
#include "vdp_reference.hpp"

namespace xl {
namespace {

using core::PhotonicInferenceEngine;
using core::RowViewIn;
using core::RowViewOut;
using core::VdpSimOptions;
using dnn::Shape;
using dnn::Tensor;

// ---------------------------------------------------------------------------
// Fixtures: deterministic networks covering every planned layer kind.
// ---------------------------------------------------------------------------

/// Untrained (seeded) Table I proxy MLP: Flatten + Dense stack.
dnn::Network make_mlp(unsigned seed = 21) {
  numerics::Rng rng(seed);
  return dnn::build_table1_proxy_mlp(rng);
}

/// Small CNN exercising every layer the plan compiles: Conv (padded and
/// unpadded), ReLU/Sigmoid/Tanh, MaxPool, AvgPool, Flatten, Dropout
/// (inference identity), Dense.
dnn::Network make_cnn(unsigned seed = 7) {
  numerics::Rng rng(seed);
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{2, 3, 3, 1, 1}, rng);  // (3,8,8)
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);  // (3,4,4)
  net.emplace<dnn::AvgPool2d>(2);  // (3,2,2)
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{3, 4, 3, 1, 1}, rng);  // (4,2,2)
  net.emplace<dnn::Sigmoid>();
  net.emplace<dnn::Flatten>();  // 16
  net.emplace<dnn::Dropout>(0.5, /*seed=*/11);
  net.emplace<dnn::Dense>(16, 8, rng);
  net.emplace<dnn::Tanh>();
  net.emplace<dnn::Dense>(8, 5, rng);
  return net;
}

const Shape kCnnSample = {1, 2, 8, 8};

/// Deterministic batch of `rows` samples for `sample_shape`.
Tensor make_batch(const Shape& sample_shape, std::size_t rows, unsigned seed) {
  Shape shape = sample_shape;
  shape[0] = rows;
  Tensor x(shape);
  numerics::Rng rng(seed);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)));
}

const char* const kEffectSets[] = {"none",  "thermal",   "fpv",
                                   "noise", "crosstalk", "all"};

VdpSimOptions vdp_with(const char* effects) {
  VdpSimOptions vdp;
  vdp.effects = core::EffectConfig::parse(effects);
  return vdp;
}

// ---------------------------------------------------------------------------
// Oracle: the layer-by-layer reference forward the plan must reproduce.
// ---------------------------------------------------------------------------

/// Layers [begin, end) of `net` on `batch`, one layer at a time: every
/// CONV/FC layer copies its operands into Matrix form (im2col patches for a
/// CONV) and runs the independent scalar VDP reference (vdp_reference.hpp)
/// under `engine`'s current effect frame, electronic layers run forward(),
/// and simulated time advances one thermal dt per accelerated layer. `stats` receives the engine-level counters and,
/// when `track_error` is set, the max |photonic - float| over the GEMM
/// layers' outputs.
Tensor oracle_forward(dnn::Network& net, core::BatchedVdpEngine& engine,
                      const Tensor& batch, std::size_t begin, std::size_t end,
                      core::PhotonicInferenceStats* stats = nullptr,
                      bool track_error = false) {
  using numerics::Matrix;
  const double dt = engine.options().effects.thermal_stage.dt_us;
  const VdpSimOptions& opts = engine.options();
  const testing::VdpReference ref(
      photonics::WavelengthGrid(opts.mrs_per_bank, opts.fsr_nm, opts.center_wavelength_nm),
      opts.q_factor, photonics::MicroringDesign{}.extinction_ratio_db, opts.resolution_bits);
  const auto photonic_matmul = [&](const Matrix& xm, const Matrix& wm) {
    return ref.matmul(xm, wm, engine.effects().crosstalk(), engine.effects().vdp_effects());
  };
  Tensor x = batch;
  for (std::size_t l = begin; l < end; ++l) {
    dnn::Layer& layer = net.layer(l);
    const dnn::LayerKind kind = layer.kind_id();
    if (kind != dnn::LayerKind::kDense && kind != dnn::LayerKind::kConv) {
      x = layer.forward(x, false);
      continue;
    }
    const Tensor reference = track_error ? layer.forward(x, false) : Tensor();
    Tensor out;
    std::size_t rows = 0;
    std::size_t k = 0;
    std::size_t outputs = 0;
    if (kind == dnn::LayerKind::kDense) {
      auto& dense = static_cast<dnn::Dense&>(layer);
      rows = x.dim(0);
      k = dense.in_features();
      outputs = dense.out_features();
      Matrix xm(rows, k);
      Matrix wm(outputs, k);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t i = 0; i < k; ++i) xm(b, i) = x.at2(b, i);
      }
      for (std::size_t o = 0; o < outputs; ++o) {
        for (std::size_t i = 0; i < k; ++i) wm(o, i) = dense.weights().at2(o, i);
      }
      const Matrix y = photonic_matmul(xm, wm);
      out = Tensor({rows, outputs});
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t o = 0; o < outputs; ++o) {
          out.at2(b, o) = static_cast<float>(y(b, o) + dense.bias()[o]);
        }
      }
    } else {
      auto& conv = static_cast<dnn::Conv2d&>(layer);
      const Shape out_shape = conv.output_shape(x.shape());
      const Tensor patches = dnn::im2col(x, conv.config());
      rows = patches.dim(0);
      k = patches.dim(1);
      outputs = conv.config().out_channels;
      Matrix xm(rows, k);
      Matrix wm(outputs, k);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t i = 0; i < k; ++i) xm(r, i) = patches.data()[r * k + i];
      }
      for (std::size_t o = 0; o < outputs; ++o) {
        for (std::size_t i = 0; i < k; ++i) wm(o, i) = conv.weights().data()[o * k + i];
      }
      const Matrix y = photonic_matmul(xm, wm);
      const std::size_t pixels = out_shape[2] * out_shape[3];
      out = Tensor(out_shape);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t o = 0; o < outputs; ++o) {
          out.data()[(r / pixels * outputs + o) * pixels + r % pixels] =
              static_cast<float>(y(r, o) + conv.bias()[o]);
        }
      }
    }
    if (stats != nullptr) {
      stats->photonic_matmuls += 1;
      stats->photonic_dot_products += rows * outputs;
      stats->photonic_macs += rows * outputs * k;
      for (std::size_t j = 0; track_error && j < out.numel(); ++j) {
        stats->max_abs_layer_error =
            std::max(stats->max_abs_layer_error,
                     static_cast<double>(std::abs(out[j] - reference[j])));
      }
    }
    x = std::move(out);
    engine.advance_effects(dt);
  }
  return x;
}

Tensor oracle_forward(dnn::Network& net, core::BatchedVdpEngine& engine,
                      const Tensor& batch) {
  return oracle_forward(net, engine, batch, 0, net.layer_count());
}

// ---------------------------------------------------------------------------
// Bit-identity: infer_batch == the oracle.
// ---------------------------------------------------------------------------

void check_plan_bit_identity(dnn::Network& oracle_net, dnn::Network& planned_net,
                             const Shape& sample_shape, const char* effects) {
  const VdpSimOptions vdp = vdp_with(effects);
  core::BatchedVdpEngine oracle(vdp);
  core::PhotonicInferenceStats want_stats;
  PhotonicInferenceEngine planned(planned_net, vdp);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const Tensor x = make_batch(sample_shape, rows, 42 + static_cast<unsigned>(rows));
    oracle.reset_effects();
    planned.engine().reset_effects();
    // Two calls without an effects reset in between: the second batch runs
    // on an advanced thermal timeline, so plan reuse (not just the first
    // compile) is held to the bit-identity contract.
    for (unsigned call = 0; call < 2; ++call) {
      const Tensor want = oracle_forward(oracle_net, oracle, x, 0,
                                         oracle_net.layer_count(), &want_stats);
      const Tensor got = planned.infer_batch(x);
      expect_bit_identical(want, got);
    }
  }
  // The plan accrues exactly the oracle's work counters.
  EXPECT_EQ(want_stats.photonic_matmuls, planned.stats().photonic_matmuls);
  EXPECT_EQ(want_stats.photonic_dot_products, planned.stats().photonic_dot_products);
  EXPECT_EQ(want_stats.photonic_macs, planned.stats().photonic_macs);
  EXPECT_EQ(planned.stats().samples_inferred, 2U * (1 + 3 + 8));
  EXPECT_EQ(planned.stats().batches_inferred, 6U);
}

TEST(ExecutionPlan, MlpBitIdenticalAcrossEffectSets) {
  for (const char* effects : kEffectSets) {
    SCOPED_TRACE(effects);
    dnn::Network oracle_net = make_mlp();
    dnn::Network planned_net = make_mlp();
    check_plan_bit_identity(oracle_net, planned_net, {1, 1, 12, 12}, effects);
  }
}

TEST(ExecutionPlan, CnnBitIdenticalAcrossEffectSets) {
  for (const char* effects : kEffectSets) {
    SCOPED_TRACE(effects);
    dnn::Network oracle_net = make_cnn();
    dnn::Network planned_net = make_cnn();
    check_plan_bit_identity(oracle_net, planned_net, kCnnSample, effects);
  }
}

TEST(ExecutionPlan, CompilesEveryLayerWithoutFallback) {
  dnn::Network net = make_cnn();
  PhotonicInferenceEngine engine(net);
  const core::ExecutionPlan& plan = engine.prepare_plan(kCnnSample, 8);
  EXPECT_EQ(plan.stats().fallback_layers, 0U);
  EXPECT_EQ(plan.stats().planned_layers, net.layer_count());
  EXPECT_EQ(plan.max_batch(), 8U);
  EXPECT_EQ(plan.sample_numel(), 2U * 8U * 8U);
  EXPECT_EQ(plan.output_numel(), 5U);
}

// ---------------------------------------------------------------------------
// infer_views: multi-view scatter/gather and recompile-on-growth.
// ---------------------------------------------------------------------------

TEST(ExecutionPlan, SplitViewsMatchOracle) {
  dnn::Network oracle_net = make_mlp();
  dnn::Network planned_net = make_mlp();
  const Shape sample = {1, 1, 12, 12};
  const VdpSimOptions vdp = vdp_with("all");
  core::BatchedVdpEngine oracle(vdp);
  PhotonicInferenceEngine planned(planned_net, vdp);
  planned.prepare_plan(sample, 8);

  const Tensor x = make_batch(sample, 8, 3);
  const Tensor want = oracle_forward(oracle_net, oracle, x);
  const std::size_t sample_numel = x.numel() / 8;
  const std::size_t classes = want.dim(1);

  // Rows 0..7 split across three requests (3 + 2 + 3), each with its own
  // output buffer — the serving shard's layout.
  std::vector<float> out0(3 * classes);
  std::vector<float> out1(2 * classes);
  std::vector<float> out2(3 * classes);
  const RowViewIn in[] = {{x.data(), 3},
                          {x.data() + 3 * sample_numel, 2},
                          {x.data() + 5 * sample_numel, 3}};
  const RowViewOut out[] = {{out0.data(), 3}, {out1.data(), 2}, {out2.data(), 3}};
  planned.infer_views(in, out);

  EXPECT_EQ(0, std::memcmp(out0.data(), want.data(), out0.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out1.data(), want.data() + 3 * classes,
                           out1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(out2.data(), want.data() + 5 * classes,
                           out2.size() * sizeof(float)));
}

TEST(ExecutionPlan, RecompilesWhenBatchOutgrowsPlan) {
  dnn::Network oracle_net = make_mlp();
  dnn::Network planned_net = make_mlp();
  const Shape sample = {1, 1, 12, 12};
  core::BatchedVdpEngine oracle;
  PhotonicInferenceEngine planned(planned_net);
  planned.prepare_plan(sample, 2);

  const Tensor x = make_batch(sample, 5, 9);
  const Tensor want = oracle_forward(oracle_net, oracle, x);
  std::vector<float> got(want.numel());
  const RowViewIn in{x.data(), 5};
  const RowViewOut out{got.data(), 5};
  planned.infer_views({&in, 1}, {&out, 1});

  ASSERT_NE(planned.plan(), nullptr);
  EXPECT_GE(planned.plan()->max_batch(), 5U);
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)));
}

TEST(ExecutionPlan, InferViewsWithoutPlanThrows) {
  dnn::Network net = make_mlp();
  PhotonicInferenceEngine engine(net);
  const RowViewIn in{nullptr, 0};
  const RowViewOut out{nullptr, 0};
  EXPECT_THROW(engine.infer_views({&in, 1}, {&out, 1}), std::logic_error);
}

TEST(ExecutionPlan, InferBatchRecompilesOnSampleShapeChange) {
  dnn::Network net = make_mlp();
  PhotonicInferenceEngine planned(net);
  // Flatten + Dense accept both the image shape and its pre-flattened form;
  // switching shapes must recompile instead of feeding a stale plan.
  const Tensor image = make_batch({1, 1, 12, 12}, 2, 4);
  const Tensor first = planned.infer_batch(image);
  Tensor flat({2, 144});
  std::memcpy(flat.data(), image.data(), flat.numel() * sizeof(float));
  planned.engine().reset_effects();
  const Tensor second = planned.infer_batch(flat);
  expect_bit_identical(first, second);
}

// ---------------------------------------------------------------------------
// infer_range: layer ranges of the one plan.
// ---------------------------------------------------------------------------

TEST(ExecutionPlan, StitchedRangesMatchWholePassAndOracle) {
  dnn::Network oracle_net = make_cnn();
  dnn::Network net = make_cnn();
  const VdpSimOptions vdp = vdp_with("all");
  const Tensor x = make_batch(kCnnSample, 4, 23);

  PhotonicInferenceEngine whole(net, vdp);
  const Tensor want = whole.infer_batch(x);

  // One layer per call on a fresh engine: the plan compiled by the first
  // call serves every later range.
  PhotonicInferenceEngine stitched(net, vdp);
  Tensor y = x;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    y = stitched.infer_range(y, l, l + 1);
  }
  expect_bit_identical(want, y);
  EXPECT_EQ(stitched.plan()->first_layer(), 0U);
  EXPECT_EQ(stitched.plan()->stats().executions, net.layer_count());
  // Counters: work accrues per range, samples/batches only on full passes.
  EXPECT_EQ(stitched.stats().photonic_macs, whole.stats().photonic_macs);
  EXPECT_EQ(stitched.stats().photonic_matmuls, whole.stats().photonic_matmuls);
  EXPECT_EQ(stitched.stats().samples_inferred, 0U);
  EXPECT_EQ(stitched.stats().batches_inferred, 0U);
  EXPECT_EQ(whole.stats().samples_inferred, 4U);
  EXPECT_EQ(whole.stats().batches_inferred, 1U);
  // One thermal dt per accelerated layer, whichever way the pass was cut.
  const double dt = vdp.effects.thermal_stage.dt_us;
  EXPECT_EQ(stitched.engine().effects().time_us(),
            whole.engine().effects().time_us());
  EXPECT_DOUBLE_EQ(whole.engine().effects().time_us(),
                   dt * static_cast<double>(whole.accelerated_layers_before(
                            net.layer_count())));

  core::BatchedVdpEngine oracle(vdp);
  expect_bit_identical(oracle_forward(oracle_net, oracle, x), want);
}

TEST(ExecutionPlan, FreshEngineRunsATailRange) {
  // An engine whose first call starts mid-network (a tail range of a
  // stitched forward): the plan compiles from that layer's input shape.
  dnn::Network oracle_net = make_cnn();
  dnn::Network net = make_cnn();
  const VdpSimOptions vdp = vdp_with("all");
  const std::size_t split = 5;  // After the second conv: input (N, 4, 2, 2).
  const Tensor x = make_batch(kCnnSample, 3, 29);

  core::BatchedVdpEngine oracle(vdp);
  const Tensor boundary = oracle_forward(oracle_net, oracle, x, 0, split);
  const Tensor want = oracle_forward(oracle_net, oracle, boundary, split,
                                     oracle_net.layer_count());

  PhotonicInferenceEngine tail(net, vdp);
  // Line the tail up on the owner's timeline: one dt per accelerated layer
  // the trunk already ran.
  for (std::size_t i = 0; i < tail.accelerated_layers_before(split); ++i) {
    tail.engine().advance_effects(vdp.effects.thermal_stage.dt_us);
  }
  const Tensor got = tail.infer_range(boundary, split, net.layer_count());
  expect_bit_identical(want, got);
  ASSERT_NE(tail.plan(), nullptr);
  EXPECT_EQ(tail.plan()->first_layer(), split);
  EXPECT_EQ(tail.stats().samples_inferred, 0U);

  // A later whole-network call needs layer 0: the plan recompiles.
  (void)tail.infer_batch(x);
  EXPECT_EQ(tail.plan()->first_layer(), 0U);
  EXPECT_THROW((void)tail.infer_range(x, 3, 1), std::invalid_argument);
  expect_bit_identical(tail.infer_range(x, 2, 2), x);
}

TEST(ExecutionPlan, ReferencePassMatchesOracleLayerError) {
  dnn::Network oracle_net = make_cnn();
  dnn::Network net = make_cnn();
  const VdpSimOptions vdp = vdp_with("all");
  const Tensor x = make_batch(kCnnSample, 5, 31);

  core::BatchedVdpEngine oracle(vdp);
  core::PhotonicInferenceStats want;
  const Tensor want_logits = oracle_forward(oracle_net, oracle, x, 0,
                                            oracle_net.layer_count(), &want, true);

  PhotonicInferenceEngine engine(net, vdp);
  engine.set_track_layer_error(true);
  const Tensor got = engine.infer_batch(x);
  expect_bit_identical(want_logits, got);  // The reference pass changes no logit.
  EXPECT_GT(want.max_abs_layer_error, 0.0);
  EXPECT_EQ(engine.stats().max_abs_layer_error, want.max_abs_layer_error);
}

// ---------------------------------------------------------------------------
// Non-finite inputs are rejected, naming the first offending row.
// ---------------------------------------------------------------------------

const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};

template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

TEST(NonFiniteInput, EngineEntryPointsNameTheRow) {
  dnn::Network net = make_mlp();
  PhotonicInferenceEngine engine(net);
  const Shape sample = {1, 1, 12, 12};
  for (const float bad : kNonFinite) {
    SCOPED_TRACE(bad);
    Tensor x = make_batch(sample, 4, 5);
    x[2 * 144 + 17] = bad;  // Row 2.
    x[3 * 144] = bad;       // Row 3: only the first offender is named.
    std::string msg = invalid_argument_message([&] { (void)engine.infer_batch(x); });
    EXPECT_NE(msg.find("row 2"), std::string::npos) << msg;
    msg = invalid_argument_message([&] { (void)engine.infer_range(x, 1, 3); });
    EXPECT_NE(msg.find("row 2"), std::string::npos) << msg;

    dnn::Dataset data = dnn::generate_classification(dnn::table1_proxy_task(), 6, 1);
    data.images[5 * 144 + 100] = bad;
    msg = invalid_argument_message([&] { (void)engine.evaluate_accuracy(data, 6); });
    EXPECT_NE(msg.find("row 5"), std::string::npos) << msg;
    EXPECT_NO_THROW((void)engine.evaluate_accuracy(data, 5));
  }
  EXPECT_EQ(engine.stats().samples_inferred, 5U * 3U);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state (engine level).
// ---------------------------------------------------------------------------

TEST(ExecutionPlan, SteadyStateMakesNoHeapAllocations) {
  dnn::Network net = make_cnn();
  PhotonicInferenceEngine planned(net, vdp_with("all"));
  planned.prepare_plan(kCnnSample, 8);

  const Tensor x = make_batch(kCnnSample, 8, 17);
  std::vector<float> out(8 * 5);
  const RowViewIn in_view{x.data(), 8};
  const RowViewOut out_view{out.data(), 8};

  // Warm-up: the first execution may grow lazily sized per-lane scratch.
  planned.engine().reset_effects();
  planned.infer_views({&in_view, 1}, {&out_view, 1});

  const std::size_t regrows_before = planned.plan()->arena_stats().regrows;
  numerics::allocs::reset();
  numerics::allocs::set_counting(true);
  for (unsigned iter = 0; iter < 10; ++iter) {
    planned.engine().reset_effects();
    planned.infer_views({&in_view, 1}, {&out_view, 1});
  }
  numerics::allocs::set_counting(false);

  EXPECT_EQ(numerics::allocs::total(), 0U);
  EXPECT_EQ(planned.plan()->arena_stats().regrows, regrows_before);
}

// ---------------------------------------------------------------------------
// Serving: served logits == a solo oracle pass, across worker counts.
// ---------------------------------------------------------------------------

const char* const kServeEffects = "thermal,noise";

serve::ServingOptions serve_options(std::size_t workers) {
  serve::ServingOptions options;
  options.workers = workers;
  options.max_batch = 8;
  options.deadline_us = 200.0;
  return options;
}

std::vector<std::future<serve::InferResult>> submit_all(serve::ServingRuntime& runtime,
                                                        const std::vector<Tensor>& trace) {
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(trace.size());
  for (const Tensor& input : trace) {
    futures.push_back(runtime.submit("table1-proxy-mlp", input));
  }
  return futures;
}

/// Each request alone through the oracle from the boot effect state — the
/// serving determinism contract's reference.
std::vector<Tensor> oracle_solo(const std::vector<Tensor>& trace) {
  dnn::Network net = make_mlp();
  core::BatchedVdpEngine oracle(vdp_with(kServeEffects));
  std::vector<Tensor> out;
  out.reserve(trace.size());
  for (const Tensor& input : trace) {
    oracle.reset_effects();
    out.push_back(oracle_forward(net, oracle, input));
  }
  return out;
}

TEST(ServingHotPath, LogitsBitIdenticalToOracleAcrossWorkers) {
  const dnn::Dataset data =
      dnn::generate_classification(dnn::table1_proxy_task(), 64, /*salt=*/3);
  const std::vector<Tensor> trace = serve::make_mixed_size_trace(data, 24, 4);
  const std::vector<Tensor> want = oracle_solo(trace);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    dnn::Network prototype = make_mlp();
    serve::ServingRuntime runtime(vdp_with(kServeEffects), serve_options(workers));
    runtime.register_model(serve::table1_proxy_served_model(prototype));
    runtime.start();
    std::vector<std::future<serve::InferResult>> futures = submit_all(runtime, trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      expect_bit_identical(want[i], futures[i].get().logits);
    }
    runtime.stop();
  }
}

TEST(ServingHotPath, NonFiniteRequestFailsOnlyItsOwnFuture) {
  const dnn::Dataset data =
      dnn::generate_classification(dnn::table1_proxy_task(), 64, /*salt=*/4);
  const std::vector<Tensor> clean = serve::make_mixed_size_trace(data, 24, 4);
  const std::vector<Tensor> want = oracle_solo(clean);
  for (const float bad : kNonFinite) {
    SCOPED_TRACE(bad);
    std::vector<Tensor> trace = clean;
    const std::size_t poisoned = 7;  // Request 7 carries 4 rows; poison row 3.
    ASSERT_EQ(trace[poisoned].dim(0), 4U);
    trace[poisoned][3 * 144 + 5] = bad;

    dnn::Network prototype = make_mlp();
    serve::ServingRuntime runtime(vdp_with(kServeEffects), serve_options(2));
    runtime.register_model(serve::table1_proxy_served_model(prototype));
    runtime.start();
    std::vector<std::future<serve::InferResult>> futures = submit_all(runtime, trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i == poisoned) {
        const std::string msg =
            invalid_argument_message([&] { (void)futures[i].get(); });
        EXPECT_NE(msg.find("row 3"), std::string::npos) << msg;
      } else {
        expect_bit_identical(want[i], futures[i].get().logits);
      }
    }
    runtime.stop();
    EXPECT_EQ(runtime.stats().requests, trace.size() - 1);
  }
}

// ---------------------------------------------------------------------------
// Arena semantics.
// ---------------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndCounted) {
  numerics::Arena arena(1024);
  EXPECT_EQ(arena.stats().capacity_bytes, 1024U);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0U);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().allocations, 3U);
  EXPECT_GE(arena.stats().used_bytes, 12U);
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_THROW(arena.allocate(1, 128), std::invalid_argument);
}

TEST(Arena, MarkRewindRestoresBumpPosition) {
  numerics::Arena arena(256);
  (void)arena.make_span<double>(4);
  const numerics::Arena::Marker marker = arena.mark();
  const std::size_t used = arena.stats().used_bytes;
  (void)arena.make_span<float>(16);
  EXPECT_GT(arena.stats().used_bytes, used);
  arena.rewind(marker);
  EXPECT_EQ(arena.stats().used_bytes, used);
  // The rewound region is handed out again.
  const std::span<float> again = arena.make_span<float>(16);
  EXPECT_EQ(again.size(), 16U);
}

TEST(Arena, ExhaustionRegrowsAndKeepsOldPointersValid) {
  numerics::Arena arena(64);
  const std::span<float> first = arena.make_span<float>(16);  // Fills block 0.
  first[0] = 1.0F;
  first[15] = 2.0F;
  const std::span<float> second = arena.make_span<float>(64);  // Must regrow.
  EXPECT_EQ(arena.stats().regrows, 1U);
  second[63] = 3.0F;
  // The original block was not freed or moved by the regrow.
  EXPECT_EQ(first[0], 1.0F);
  EXPECT_EQ(first[15], 2.0F);
  EXPECT_GE(arena.stats().capacity_bytes, 64U + 64U * sizeof(float));
}

TEST(Arena, ResetCoalescesOverflowBlocks) {
  numerics::Arena arena(64);
  (void)arena.make_span<float>(16);
  (void)arena.make_span<float>(64);  // Overflow block.
  ASSERT_EQ(arena.stats().regrows, 1U);
  const std::size_t capacity = arena.stats().capacity_bytes;
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0U);
  EXPECT_EQ(arena.stats().resets, 1U);
  // One coalesced block of the summed capacity: the regrow debt is cleared
  // and the same allocation epoch now fits without regrowing again.
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_EQ(arena.stats().capacity_bytes, capacity);
  (void)arena.make_span<float>(16);
  (void)arena.make_span<float>(64);
  EXPECT_EQ(arena.stats().regrows, 0U);
}

TEST(Arena, NestedMarksRewindLifo) {
  // The mark()/rewind() discipline is LIFO: an inner mark/rewind pair must
  // restore exactly to the inner mark, leaving the outer scope's
  // allocations (and their contents) untouched, and the outer rewind then
  // peels back to the outer mark. This is the shape of a planned engine
  // call that itself marks around per-tile scratch.
  numerics::Arena arena(512);
  const std::span<double> persistent = arena.make_span<double>(4);
  persistent[0] = 42.0;
  const numerics::Arena::Marker outer = arena.mark();
  const std::size_t outer_used = arena.stats().used_bytes;

  const std::span<float> outer_scratch = arena.make_span<float>(8);
  outer_scratch[7] = 7.0F;
  const numerics::Arena::Marker inner = arena.mark();
  const std::size_t inner_used = arena.stats().used_bytes;

  (void)arena.make_span<float>(16);
  arena.rewind(inner);
  EXPECT_EQ(arena.stats().used_bytes, inner_used);
  // The outer scope's scratch survived the inner rewind.
  EXPECT_EQ(outer_scratch[7], 7.0F);

  arena.rewind(outer);
  EXPECT_EQ(arena.stats().used_bytes, outer_used);
  EXPECT_EQ(persistent[0], 42.0);
}

TEST(Arena, RegrowAccountingUnderInterleavedMarks) {
  // Marks interleaved with regrows: rewinding across an overflow block
  // must keep the block (empty, for reuse) rather than free it, so the
  // regrow counter only ever counts blocks *appended* — a rewound-and-
  // replayed epoch of identical allocations reuses the kept blocks and
  // adds zero new regrows.
  numerics::Arena arena(64);
  const numerics::Arena::Marker epoch_start = arena.mark();
  (void)arena.make_span<float>(12);  // Fits block 0.
  ASSERT_EQ(arena.stats().regrows, 0U);

  const std::span<float> spill = arena.make_span<float>(64);  // Regrow #1.
  ASSERT_EQ(arena.stats().regrows, 1U);
  spill[0] = 1.0F;
  const numerics::Arena::Marker mid = arena.mark();  // Inside overflow block.

  (void)arena.make_span<float>(256);  // Regrow #2.
  ASSERT_EQ(arena.stats().regrows, 2U);
  const std::size_t grown_capacity = arena.stats().capacity_bytes;

  // Rewind to the marker inside overflow block #1: block #2 is kept empty,
  // capacity and regrow accounting unchanged, spill data intact.
  arena.rewind(mid);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);
  EXPECT_EQ(arena.stats().regrows, 2U);
  EXPECT_EQ(spill[0], 1.0F);

  // Replaying the tail of the epoch reuses the kept block: no new regrow.
  (void)arena.make_span<float>(256);
  EXPECT_EQ(arena.stats().regrows, 2U);

  // Full rewind + replay of the whole epoch: still no new regrow.
  arena.rewind(epoch_start);
  EXPECT_EQ(arena.stats().used_bytes, 0U);
  (void)arena.make_span<float>(12);
  (void)arena.make_span<float>(64);
  (void)arena.make_span<float>(256);
  EXPECT_EQ(arena.stats().regrows, 2U);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);

  // reset() clears the debt: one coalesced block, counter back to zero.
  arena.reset();
  EXPECT_EQ(arena.stats().regrows, 0U);
  EXPECT_EQ(arena.stats().capacity_bytes, grown_capacity);
}

TEST(Arena, ReserveRequiresEmptyArena) {
  numerics::Arena arena(64);
  arena.reserve(256);
  EXPECT_GE(arena.stats().capacity_bytes, 256U);
  (void)arena.allocate(8);
  EXPECT_THROW(arena.reserve(512), std::logic_error);
}

// ---------------------------------------------------------------------------
// Training-gated activation caches.
// ---------------------------------------------------------------------------

TEST(TrainingGatedCaches, InferenceForwardLeavesNoBackwardState) {
  numerics::Rng rng(3);
  dnn::Conv2d conv(dnn::Conv2dConfig{1, 2, 3, 1, 1}, rng);
  dnn::Dense dense(8, 4, rng);
  dnn::ReLU relu;
  dnn::MaxPool2d pool(2);

  const Tensor image = make_batch({1, 1, 4, 4}, 2, 5);
  const Tensor row = make_batch({1, 8}, 2, 6);

  // Training forward arms backward...
  Tensor conv_out = conv.forward(image, true);
  (void)conv.backward(conv_out);
  Tensor dense_out = dense.forward(row, true);
  (void)dense.backward(dense_out);

  // ...inference forward clears the cache, so a stale backward fails loudly.
  conv_out = conv.forward(image, false);
  EXPECT_THROW((void)conv.backward(conv_out), std::logic_error);
  dense_out = dense.forward(row, false);
  EXPECT_THROW((void)dense.backward(dense_out), std::logic_error);
  const Tensor relu_out = relu.forward(row, false);
  EXPECT_THROW((void)relu.backward(relu_out), std::logic_error);
  const Tensor pool_out = pool.forward(image, false);
  EXPECT_THROW((void)pool.backward(pool_out), std::logic_error);
}

}  // namespace
}  // namespace xl

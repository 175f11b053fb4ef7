// cnn-accuracy: the Fig. 4/5 accuracy-sweep path. Each operation is one
// api::Session::evaluate_functional call over a batch of seeded synthetic
// images on one of the four reduced Table I networks, with every effect
// stage on. The functional backend builds a fresh engine per call, so the
// thermal timeline advances across the network's layers from boot on every
// call and the GEMM table caches miss on every layer.
//
// Labels are the float network's own argmax, so the reported accuracy is
// photonic-vs-float agreement and no training is needed in set-up.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "api/session.hpp"
#include "core/batched_vdp_engine.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/im2col.hpp"
#include "dnn/models.hpp"
#include "numerics/arena.hpp"
#include "numerics/gemm.hpp"
#include "numerics/rng.hpp"
#include "stats.hpp"
#include "studies.hpp"

namespace xlb {
namespace {

using xl::dnn::LayerKind;
using xl::dnn::Tensor;

constexpr std::size_t kBatch = 16;   ///< Samples per call (one eval batch).
constexpr std::size_t kSlices = 4;   ///< Distinct image sets per model.

/// Static names per model (span names must outlive the spans), plus the
/// floor of the run's mean photonic-vs-float agreement. The full effect
/// stack flips many argmaxes of these untrained networks: measured means
/// over seeds 1-3 were about 0.97 (lenet5), 0.45 (cifar), 0.2 (stl) and
/// 0.17 (siamese, 64-way). The floors sit well below that, so a deliberate
/// rounding change passes while a datapath that collapses to chance fails.
struct ModelNames {
  const char* key;
  const char* conv_span;
  const char* dense_span;
  const char* elec_span;
  double min_agreement;
};
constexpr std::array<ModelNames, 4> kNames = {{
    {"lenet5", "core.lenet5.conv", "core.lenet5.dense", "dnn.lenet5.electronic", 0.75},
    {"cifar", "core.cifar.conv", "core.cifar.dense", "dnn.cifar.electronic", 0.2},
    {"stl", "core.stl.conv", "core.stl.dense", "dnn.stl.electronic", 0.05},
    {"siamese", "core.siamese.conv", "core.siamese.dense", "dnn.siamese.electronic", 0.05},
}};

xl::dnn::Network build_network(std::size_t i) {
  xl::numerics::Rng rng(1000 + i);  // Weights are fixed; the seed drives inputs.
  switch (i) {
    case 0: return xl::dnn::build_lenet5(rng);
    case 1: return xl::dnn::build_reduced_cifar_cnn(rng);
    case 2: return xl::dnn::build_reduced_stl_cnn(rng);
    default: return xl::dnn::build_reduced_siamese_branch(rng);
  }
}

xl::dnn::SyntheticSpec image_spec(std::size_t i) {
  const xl::dnn::Shape shape = xl::dnn::reduced_input_shape(static_cast<int>(i) + 1);
  xl::dnn::SyntheticSpec spec;
  switch (i) {
    case 0: spec = xl::dnn::signmnist_like(); break;
    case 1: spec = xl::dnn::cifar10_like(); break;
    case 2: spec = xl::dnn::stl10_like(shape[2]); break;
    default: spec = xl::dnn::omniglot_like(shape[2]); break;
  }
  spec.channels = shape[1];
  spec.height = shape[2];
  spec.width = shape[3];
  return spec;
}

std::size_t argmax_row(const Tensor& logits, std::size_t row) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < logits.dim(1); ++c) {
    if (logits.at2(row, c) > logits.at2(row, best)) best = c;
  }
  return best;
}

/// Photonic MACs one sample costs, from the layer shapes alone.
std::size_t macs_per_sample(xl::dnn::Network& net, xl::dnn::Shape shape) {
  std::size_t macs = 0;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    xl::dnn::Layer& layer = net.layer(l);
    const xl::dnn::Shape out = layer.output_shape(shape);
    if (layer.kind_id() == LayerKind::kConv) {
      const auto& cfg = static_cast<xl::dnn::Conv2d&>(layer).config();
      macs += out[2] * out[3] * cfg.out_channels * cfg.in_channels * cfg.kernel *
              cfg.kernel;
    } else if (layer.kind_id() == LayerKind::kDense) {
      const auto& dense = static_cast<xl::dnn::Dense&>(layer);
      macs += dense.in_features() * dense.out_features();
    }
    shape = out;
  }
  return macs;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct Model {
  xl::dnn::ModelSpec spec;
  /// Heap-held so moving a Model never moves the network: its layers point
  /// at the network's own quantization spec.
  std::unique_ptr<xl::dnn::Network> net;
  std::vector<xl::dnn::Dataset> slices;
  std::size_t macs = 0;           ///< Per sample, from shapes.
  double analytical_fps = -1.0;   ///< Pinned by the first call of the run.
  /// Accuracy of each slice, pinned by its first call: repeats must match.
  std::array<double, kSlices> accuracy = {-1.0, -1.0, -1.0, -1.0};
  std::size_t agreed = 0;  ///< Samples whose photonic argmax matched the float one.
  std::size_t judged = 0;
  std::vector<double> call_us;  ///< Every timed evaluate_functional call.
  double owed_us = 0.0;   ///< Measuring time owed over the run so far.
  double spent_us = 0.0;  ///< Measuring time spent, checks included.
};

class CnnStudy final : public Study {
 public:
  explicit CnnStudy(std::uint64_t seed) : session_(make_config()) {
    const std::vector<xl::dnn::ModelSpec> specs = xl::dnn::table1_models();
    models_.reserve(kNames.size());
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      Model m;
      m.spec = specs[i];
      m.net.reset(new xl::dnn::Network(build_network(i)));  // Constructed in place.
      m.macs = macs_per_sample(*m.net, xl::dnn::reduced_input_shape(static_cast<int>(i) + 1));
      xl::dnn::SyntheticSpec spec = image_spec(i);
      spec.seed = seed * 7919 + i;
      for (std::size_t s = 0; s < kSlices; ++s) {
        xl::dnn::Dataset data = xl::dnn::generate_classification(spec, kBatch, s);
        const Tensor logits = m.net->forward(data.images, false);
        data.classes = logits.dim(1);
        for (std::size_t r = 0; r < kBatch; ++r) data.labels[r] = argmax_row(logits, r);
        m.slices.push_back(std::move(data));
      }
      models_.push_back(std::move(m));
    }
  }

  /// Each model is owed an equal share of every slice and calls while it
  /// has spent less than it is owed over the run so far. The cheap networks
  /// collect more calls than the expensive ones, and a model whose call
  /// outlasts its share sits out later slices until it is owed again, so
  /// the study keeps to its budget.
  void measure(double budget_s, Checks& checks) override {
    const double share_us = budget_s * 1e6 / static_cast<double>(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      Model& m = models_[i];
      m.owed_us += share_us;
      while (m.spent_us < m.owed_us) {
        const std::size_t slice = m.call_us.size() % kSlices;
        checks.attempt();
        const auto t0 = Clock::now();
        try {
          const xl::api::EvalResult r =
              session_.evaluate_functional("functional", m.spec, *m.net, m.slices[slice]);
          m.call_us.push_back(us_between(t0, Clock::now()));
          verify(i, slice, r, checks);
        } catch (const std::exception& e) {
          checks.fail(std::string("cnn ") + kNames[i].key + ": " + e.what());
          break;
        }
        m.spent_us += us_between(t0, Clock::now());
      }
    }
  }

  void report(Metrics& metrics, Checks& checks, const HostSpeed& host) override {
    for (std::size_t i = 0; i < models_.size(); ++i) {
      check_agreement(i, checks);
      const std::vector<double>& calls = models_[i].call_us;
      const double us = calls.empty() ? 0.0 : median(calls);
      std::printf("cnn %-8s %zu calls of %zu samples, median %.1f ms (host slowdown %.3f)\n",
                  kNames[i].key, calls.size(), kBatch, us / 1e3, host.slowdown());
      metrics.set(std::string("cnn.") + kNames[i].key + ".samples_per_s",
                  us > 0.0 ? host.rate(static_cast<double>(kBatch) * 1e6 / us) : 0.0, "1/s");
    }
  }

  void trace(double budget_s, bool primary, Tracer& tracer, Metrics& metrics,
             Checks& checks) override {
    // Per model: one untraced infer_batch pass (the legacy whole-network
    // call evaluate_accuracy makes) and one traced pass that stitches the
    // same forward from infer_range(l, l + 1), each on a fresh engine so
    // both start from the boot effect timeline. The stitch must reproduce
    // the untraced logits bit for bit.
    const double gemm_budget_s = 0.2 * budget_s;
    std::vector<std::size_t> samples(models_.size(), 0);
    std::vector<std::size_t> macs(models_.size(), 0);
    double untraced_us = 0.0;
    double traced_us = 0.0;
    std::uint64_t pass = 0;
    const auto start = Clock::now();
    for (std::size_t round = 0;
         round == 0 || us_between(start, Clock::now()) < (budget_s - gemm_budget_s) * 1e6;
         ++round) {
      for (std::size_t i = 0; i < models_.size(); ++i) {
        Model& m = models_[i];
        const xl::dnn::Dataset& data = m.slices[round % kSlices];
        checks.attempt();
        try {
          const Tensor batch = xl::dnn::batch_images(data, 0, kBatch);
          xl::core::PhotonicInferenceEngine plain(*m.net, session_.config().vdp);
          const auto a0 = Clock::now();
          const Tensor reference = plain.infer_batch(batch);
          untraced_us += us_between(a0, Clock::now());

          xl::core::PhotonicInferenceEngine stitched(*m.net, session_.config().vdp);
          ++pass;
          const auto b0 = Clock::now();
          Tensor x = batch;
          for (std::size_t l = 0; l < m.net->layer_count(); ++l) {
            const LayerKind kind = m.net->layer(l).kind_id();
            const auto t0 = Clock::now();
            x = stitched.infer_range(x, l, l + 1);
            const auto t1 = Clock::now();
            if (kind == LayerKind::kConv) {
              tracer.record(kNames[i].conv_span, "core", t0, t1, pass);
            } else if (kind == LayerKind::kDense) {
              tracer.record(kNames[i].dense_span, "core", t0, t1, pass);
            } else {
              tracer.record(kNames[i].elec_span, "dnn", t0, t1, pass);
            }
          }
          traced_us += us_between(b0, Clock::now());

          samples[i] += kBatch;
          macs[i] += plain.stats().photonic_macs;
          checks.expect(bit_identical(reference, x),
                        std::string("cnn ") + kNames[i].key +
                            ": traced infer_range stitch differs from infer_batch");
          checks.expect(plain.stats().photonic_macs == m.macs * kBatch &&
                            stitched.stats().photonic_macs == m.macs * kBatch,
                        std::string("cnn ") + kNames[i].key + ": MAC counter mismatch");
          for (std::size_t r = 0; r < kBatch; ++r) {
            m.agreed += argmax_row(x, r) == data.labels[r] ? 1 : 0;
          }
          m.judged += kBatch;
        } catch (const std::exception& e) {
          checks.fail(std::string("cnn trace ") + kNames[i].key + ": " + e.what());
        }
      }
    }
    for (std::size_t i = 0; i < models_.size(); ++i) {
      check_agreement(i, checks);
      const double n = static_cast<double>(samples[i]);
      const std::string core = std::string("core.") + kNames[i].key;
      metrics.set(core + ".conv_us", tracer.total_us(kNames[i].conv_span) / n, "us");
      metrics.set(core + ".dense_us", tracer.total_us(kNames[i].dense_span) / n, "us");
      metrics.set(std::string("dnn.") + kNames[i].key + ".electronic_us",
                  tracer.total_us(kNames[i].elec_span) / n, "us");
      metrics.set(core + ".macs_per_sample", static_cast<double>(macs[i]) / n, "count");
    }
    trace_gemm(gemm_budget_s, tracer, metrics, checks);
    if (primary) metrics.set("trace.overhead_frac", traced_us / untraced_us - 1.0, "frac");
  }

 private:
  static xl::api::SimConfig make_config() {
    xl::api::SimConfig config;
    config.vdp.effects = xl::core::EffectConfig::parse("all");
    config.eval_batch_size = kBatch;
    config.functional_samples = kBatch;
    return config;
  }

  /// Checks and resets model i's accumulated agreement.
  void check_agreement(std::size_t i, Checks& checks) {
    Model& m = models_[i];
    const double agreement =
        m.judged > 0 ? static_cast<double>(m.agreed) / static_cast<double>(m.judged) : 0.0;
    std::printf("cnn %-8s photonic-vs-float agreement %.3f over %zu samples\n",
                kNames[i].key, agreement, m.judged);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "cnn %s: agreement %.3f below %.2f", kNames[i].key,
                  agreement, kNames[i].min_agreement);
    checks.expect(agreement >= kNames[i].min_agreement, buf);
    m.agreed = 0;
    m.judged = 0;
  }

  void verify(std::size_t i, std::size_t slice, const xl::api::EvalResult& r,
              Checks& checks) {
    Model& m = models_[i];
    const std::string who = std::string("cnn ") + kNames[i].key + ": ";
    const auto& f = r.functional;
    checks.expect(f.populated && f.samples == kBatch && f.stats.samples_inferred == kBatch,
                  who + "functional result incomplete");
    checks.expect(f.stats.photonic_macs == m.macs * kBatch,
                  who + "photonic MACs " + std::to_string(f.stats.photonic_macs) +
                      " != " + std::to_string(m.macs * kBatch));
    if (m.accuracy[slice] < 0.0) m.accuracy[slice] = f.accuracy;
    checks.expect(f.accuracy == m.accuracy[slice],
                  who + "accuracy on a repeated image set changed");
    m.agreed += static_cast<std::size_t>(std::lround(f.accuracy * kBatch));
    m.judged += kBatch;
    // Simulated-accelerator throughput is deterministic: a correctness
    // check, never a performance figure.
    const double fps = r.has_report ? r.report.perf.fps : -1.0;
    if (m.analytical_fps < 0.0) m.analytical_fps = fps;
    checks.expect(std::isfinite(fps) && fps > 0.0 && fps == m.analytical_fps,
                  who + "analytical FPS missing or not deterministic");
  }

  /// One representative conv GEMM, timed layer by layer: the reduced CIFAR
  /// network's conv4 (32 -> 32 channels, 3x3, 8x8 maps) over 4 samples,
  /// i.e. a 256 x 288 patch matrix against 32 filters.
  void trace_gemm(double budget_s, Tracer& tracer, Metrics& metrics, Checks& checks) {
    constexpr std::size_t kConvLayer = 7;
    constexpr std::size_t kSamples = 4;
    const double each_s = budget_s / 7.0;
    checks.attempt();
    try {
      auto& conv = static_cast<xl::dnn::Conv2d&>(models_[1].net->layer(kConvLayer));
      const auto& cfg = conv.config();
      const xl::dnn::Im2colPlan plan = xl::dnn::plan_im2col({1, cfg.in_channels, 8, 8}, cfg);
      const std::size_t k = plan.shape.cols;
      const std::size_t rows = kSamples * plan.shape.rows;
      const std::size_t outputs = cfg.out_channels;

      std::vector<float> input(kSamples * plan.sample_numel);
      xl::numerics::Rng rng(17);
      for (float& v : input) v = static_cast<float>(rng.uniform(0.0, 1.0));  // Post-ReLU.
      std::vector<float> patches(rows * k);
      const auto gather = [&] {
        for (std::size_t n = 0; n < kSamples; ++n) {
          xl::dnn::im2col_gather(plan, input.data() + n * plan.sample_numel,
                                 patches.data() + n * plan.shape.rows * k);
        }
      };
      const std::vector<double> im2col_us =
          time_reps(tracer, "dnn.im2col", "dnn", each_s, 5, 2000, gather);

      xl::core::BatchedVdpEngine engine(session_.config().vdp);
      xl::core::PackedGemmWeights packed;
      const std::vector<double> pack_us =
          time_reps(tracer, "core.vdp.pack_weights", "core", each_s, 5, 2000,
                    [&] { packed = engine.pack_weights(conv.weights().data(), outputs, k); });

      const std::size_t te = engine.gemm_table_elems(k);
      xl::numerics::Arena arena(engine.matmul_workspace_bytes(rows, k) +
                                (outputs + 1) * te * sizeof(double) + 4096);
      xl::core::GemmTableCache tables;
      tables.carry = arena.make_span<double>(outputs * te);
      tables.idle = arena.make_span<double>(te);
      engine.warm_thread_scratch(k);
      std::vector<double> y(rows * outputs);
      const auto matmul = [&] {
        engine.photonic_matmul(patches.data(), rows, k, packed, y.data(), arena, tables);
      };
      matmul();  // Fills the table cache at the current effect time.
      // Warm and cold calls alternate, so the table build is the median of
      // paired differences rather than a difference of two noisy medians.
      std::vector<double> warm_us;
      std::vector<double> build_us;
      const auto gemm_start = Clock::now();
      while (warm_us.size() < 5 ||
             (warm_us.size() < 500 && us_between(gemm_start, Clock::now()) < 2 * each_s * 1e6)) {
        const auto t0 = Clock::now();
        matmul();
        const auto t1 = Clock::now();
        tables.stamp = -1.0;  // Invalidate: the next call rebuilds its tables.
        const auto t2 = Clock::now();
        matmul();
        const auto t3 = Clock::now();
        tracer.record("core.gemm.warm", "core", t0, t1);
        tracer.record("core.gemm.cold", "core", t2, t3);
        warm_us.push_back(us_between(t0, t1));
        build_us.push_back(us_between(t2, t3) - warm_us.back());
      }

      xl::numerics::Matrix xm(rows, k);
      xl::numerics::Matrix wm(outputs, k);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < k; ++c) xm(r, c) = patches[r * k + c];
      }
      for (std::size_t o = 0; o < outputs; ++o) {
        for (std::size_t c = 0; c < k; ++c) wm(o, c) = conv.weights().data()[o * k + c];
      }
      xl::numerics::Matrix exact;
      const std::vector<double> exact_us =
          time_reps(tracer, "numerics.gemm.exact", "numerics", each_s, 5, 2000,
                    [&] { exact = xl::numerics::matmul_transposed(xm, wm); });

      // Photonic and exact products of the same operands must agree to
      // within the datapath's analog error (a few % of full scale).
      double worst = 0.0;
      double scale = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t o = 0; o < outputs; ++o) {
          worst = std::max(worst, std::abs(y[r * outputs + o] - exact(r, o)));
          scale = std::max(scale, std::abs(exact(r, o)));
        }
      }
      checks.expect(scale > 0.0 && worst <= 0.25 * scale,
                    "gemm probe: photonic GEMM far from the exact product");

      const double dt_us = session_.config().vdp.effects.thermal_stage.dt_us;
      const std::vector<double> advance_us =
          time_reps(tracer, "core.effects.advance", "core", each_s, 5, 20000,
                    [&] { engine.advance_effects(dt_us); });

      const double warm = median(warm_us);
      metrics.set("core.gemm.warm_us", warm, "us");
      metrics.set("core.gemm.table_build_us", median(build_us), "us");
      metrics.set("core.vdp.pack_weights_us", median(pack_us), "us");
      metrics.set("numerics.gemm.exact_us", median(exact_us), "us");
      metrics.set("dnn.im2col_us", median(im2col_us), "us");
      metrics.set("core.effects.advance_us", median(advance_us), "us");
    } catch (const std::exception& e) {
      checks.fail(std::string("gemm probe: ") + e.what());
    }
  }

  xl::api::Session session_;
  std::vector<Model> models_;
};

}  // namespace

std::unique_ptr<Study> make_cnn_study(std::uint64_t seed) {
  return std::make_unique<CnnStudy>(seed);
}

}  // namespace xlb

// xl::fleet tests: wire-format round trips, partition maps, halo-plan
// tiling, and the PR 7 acceptance contract — a mixed-model trace (data-
// parallel + model-parallel) and a DSE sweep replayed on 1/2/4 nodes must
// produce bit-identical per-sample logits and ranked Pareto fronts versus
// a single-node reference, under any partition map, with warm distributed
// DSE re-runs paying zero evaluator calls.
//
// The TSan CI job runs this binary with -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dse.hpp"
#include "core/dse_engine.hpp"
#include "core/effects.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/models.hpp"
#include "dnn/reshape.hpp"
#include "fleet/fleet.hpp"
#include "numerics/rng.hpp"

namespace xl::fleet {
namespace {

dnn::Network make_proxy(unsigned seed) {
  numerics::Rng rng(seed);
  return dnn::build_table1_proxy_mlp(rng);
}

core::VdpSimOptions fleet_vdp() {
  core::VdpSimOptions vdp;
  // Thermal (time-stepped) + keyed PD noise: the full keyed-noise
  // discipline the fleet determinism contract must hold under.
  vdp.effects = core::EffectConfig::parse("thermal,noise");
  return vdp;
}

std::vector<dnn::Tensor> proxy_trace(std::size_t requests) {
  const dnn::Dataset data =
      dnn::generate_classification(dnn::table1_proxy_task(), 48, /*salt=*/7);
  return serve::make_mixed_size_trace(data, requests, /*max_rows=*/4);
}

/// Three proxy-architecture models with distinct seeded weights: two
/// data-parallel, one model-parallel. Shared input shape keeps the mixed
/// trace simple; distinct weights make cross-model routing mistakes fatal
/// to the bit-identity assertions.
struct Zoo {
  dnn::Network proxy_a = make_proxy(21);
  dnn::Network proxy_b = make_proxy(77);
  dnn::Network proxy_mp = make_proxy(33);

  [[nodiscard]] std::vector<FleetModel> models() {
    std::vector<FleetModel> zoo;
    zoo.push_back({serve::ServedModel{"proxy-a", &proxy_a,
                                      [] { return make_proxy(21); },
                                      {1, 1, 12, 12},
                                      {},
                                      {}},
                   false});
    zoo.push_back({serve::ServedModel{"proxy-b", &proxy_b,
                                      [] { return make_proxy(77); },
                                      {1, 1, 12, 12},
                                      {},
                                      {}},
                   false});
    zoo.push_back({serve::ServedModel{"proxy-mp", &proxy_mp,
                                      [] { return make_proxy(33); },
                                      {1, 1, 12, 12},
                                      {},
                                      {}},
                   true});
    return zoo;
  }
};

const char* trace_model(std::size_t i) {
  switch (i % 3) {
    case 0: return "proxy-a";
    case 1: return "proxy-b";
    default: return "proxy-mp";
  }
}

/// Single-engine reference: each request alone, effect pipeline reset to
/// boot state (the canonical timeline every fleet execution must match).
std::vector<dnn::Tensor> reference_logits(Zoo& zoo,
                                          const std::vector<dnn::Tensor>& trace) {
  core::PhotonicInferenceEngine direct_a(zoo.proxy_a, fleet_vdp());
  core::PhotonicInferenceEngine direct_b(zoo.proxy_b, fleet_vdp());
  core::PhotonicInferenceEngine direct_mp(zoo.proxy_mp, fleet_vdp());
  std::vector<dnn::Tensor> logits;
  logits.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    core::PhotonicInferenceEngine& direct =
        i % 3 == 0 ? direct_a : (i % 3 == 1 ? direct_b : direct_mp);
    direct.engine().reset_effects();
    logits.push_back(direct.infer_batch(trace[i]));
  }
  return logits;
}

std::vector<dnn::Tensor> fleet_replay(FleetCoordinator& fleet,
                                      const std::vector<dnn::Tensor>& trace) {
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    futures.push_back(fleet.submit(trace_model(i), trace[i]));
  }
  std::vector<dnn::Tensor> logits;
  logits.reserve(trace.size());
  for (auto& future : futures) logits.push_back(future.get().logits);
  return logits;
}

void expect_bit_identical(const std::vector<dnn::Tensor>& a,
                          const std::vector<dnn::Tensor>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << what << " request " << i;
    for (std::size_t j = 0; j < a[i].numel(); ++j) {
      ASSERT_EQ(a[i][j], b[i][j]) << what << " request " << i << " element " << j;
    }
  }
}

FleetOptions fleet_options(std::size_t nodes, const std::string& partition = "") {
  FleetOptions options;
  options.nodes = nodes;
  options.partition = FleetPartition::parse(partition);
  options.serving.workers = 2;
  options.serving.max_batch = 8;
  options.serving.deadline_us = 200.0;
  return options;
}

// --- wire format -------------------------------------------------------------

TEST(FleetWire, HeaderRoundTripAndValidation) {
  FrameHeader header;
  header.type = FrameType::kHaloTile;
  header.channel = Channel::kHaloRequest;
  header.source = 3;
  header.dest = 1;
  header.sequence = 0xDEADBEEFCAFEULL;
  header.payload_bytes = 4096;
  auto bytes = encode_header(header);
  const FrameHeader decoded = decode_header(bytes);
  EXPECT_EQ(decoded.type, header.type);
  EXPECT_EQ(decoded.channel, header.channel);
  EXPECT_EQ(decoded.source, header.source);
  EXPECT_EQ(decoded.dest, header.dest);
  EXPECT_EQ(decoded.sequence, header.sequence);
  EXPECT_EQ(decoded.payload_bytes, header.payload_bytes);

  bytes[0] ^= 0xFF;  // Corrupt the magic.
  EXPECT_THROW((void)decode_header(bytes), std::runtime_error);
}

TEST(FleetWire, TensorRoundTripIsBitExact) {
  numerics::Rng rng(9);
  dnn::Tensor tensor({3, 5});
  for (std::size_t i = 0; i < tensor.numel(); ++i) {
    tensor[i] = static_cast<float>(rng.gaussian(0.0, 123.456));
  }
  WireWriter writer;
  write_tensor(writer, tensor);
  const std::vector<std::uint8_t> payload = writer.take();
  WireReader reader(payload);
  const dnn::Tensor back = read_tensor(reader);
  reader.expect_done();
  ASSERT_EQ(back.shape(), tensor.shape());
  for (std::size_t i = 0; i < tensor.numel(); ++i) {
    EXPECT_EQ(back[i], tensor[i]);  // IEEE-754 bit pattern, never rounded.
  }
}

TEST(FleetWire, MemoRoundTripIsBitExact) {
  core::DseMemo memo;
  core::AcceleratorReport report;
  report.accelerator = "crosslight:opt_ted";
  report.model = "LeNet5";
  report.perf.fps = 12345.6789;
  report.power.laser_mw = 0.1 + 0.2;  // A value with non-obvious low bits.
  report.area_mm2 = 25.25;
  memo.entries.push_back({"key-a", report});
  WireWriter writer;
  write_memo(writer, memo);
  const std::vector<std::uint8_t> payload = writer.take();
  WireReader reader(payload);
  const core::DseMemo back = read_memo(reader);
  reader.expect_done();
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.entries[0].key, "key-a");
  EXPECT_TRUE(core::reports_bit_identical(back.entries[0].report, report));
}

TEST(FleetWire, TruncatedPayloadThrows) {
  WireWriter writer;
  writer.str("hello");
  std::vector<std::uint8_t> payload = writer.take();
  payload.pop_back();
  WireReader reader(payload);
  EXPECT_THROW((void)reader.str(), std::runtime_error);
}

// --- partition + halo plan ---------------------------------------------------

TEST(FleetPartitionMap, ParseAndOwnership) {
  const FleetPartition rr = FleetPartition::parse("round_robin");
  EXPECT_EQ(rr.owner_of("a", 0, 2), 0u);
  EXPECT_EQ(rr.owner_of("b", 1, 2), 1u);
  EXPECT_EQ(rr.owner_of("c", 2, 2), 0u);

  const FleetPartition hash = FleetPartition::parse("hash");
  EXPECT_LT(hash.owner_of("anything", 5, 3), 3u);
  // Hash ownership ignores the registration index.
  EXPECT_EQ(hash.owner_of("anything", 0, 3), hash.owner_of("anything", 9, 3));

  const FleetPartition pins = FleetPartition::parse("proxy-a=1,proxy-mp=0");
  EXPECT_EQ(pins.owner_of("proxy-a", 0, 2), 1u);
  EXPECT_EQ(pins.owner_of("proxy-mp", 2, 2), 0u);
  EXPECT_EQ(pins.owner_of("unpinned", 1, 2), 1u);  // Falls back to round robin.

  EXPECT_THROW((void)FleetPartition::parse("no-rank"), std::invalid_argument);
  EXPECT_THROW((void)FleetPartition::parse("a=x"), std::invalid_argument);
  EXPECT_THROW((void)FleetPartition::parse("a=1,a=2"), std::invalid_argument);
  EXPECT_THROW((void)pins.owner_of("proxy-a", 0, 1), std::invalid_argument);
}

TEST(FleetHaloPlan, TileRangesPartitionTheBoundary) {
  dnn::Network network = make_proxy(21);
  const HaloPlan plan = make_halo_plan(network);
  EXPECT_EQ(plan.in_features, 64u);
  EXPECT_EQ(plan.accelerated_trunk_layers, 1u);
  for (const std::uint32_t tiles : {1u, 2u, 3u, 4u, 7u}) {
    std::size_t covered = 0;
    std::size_t cursor = 0;
    for (std::uint32_t t = 0; t < tiles; ++t) {
      const auto range = plan.tile_range(t, tiles);
      EXPECT_EQ(range.first, cursor) << "tiles must be contiguous in rank order";
      EXPECT_LE(range.first, range.second);
      covered += range.second - range.first;
      cursor = range.second;
    }
    EXPECT_EQ(covered, plan.out_features) << tiles << " tiles";
  }
  EXPECT_THROW((void)plan.tile_range(2, 2), std::invalid_argument);
}

// --- the PR 7 acceptance tests ----------------------------------------------

TEST(FleetReplay, MixedModelTraceBitIdenticalAcrossNodeCountsAndPartitions) {
  Zoo zoo;
  const std::vector<dnn::Tensor> trace = proxy_trace(24);
  const std::vector<dnn::Tensor> reference = reference_logits(zoo, trace);

  for (const std::size_t nodes : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    FleetCoordinator fleet(fleet_vdp(), fleet_options(nodes));
    for (FleetModel& model : zoo.models()) fleet.register_model(std::move(model));
    fleet.start();
    const std::vector<dnn::Tensor> logits = fleet_replay(fleet, trace);
    fleet.stop();
    expect_bit_identical(reference, logits,
                         std::to_string(nodes) + " node(s) round_robin");

    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.requests, trace.size());
    std::size_t mp_requests = 0;
    std::size_t served = 0;
    for (const FleetNodeStats& node : stats.nodes) {
      mp_requests += node.mp_requests;
      served += node.serving.requests;
    }
    EXPECT_EQ(mp_requests, trace.size() / 3);              // Every 3rd is mp.
    EXPECT_EQ(served, trace.size() - trace.size() / 3);    // The rest are dp.
    if (nodes > 1) {
      // Model-parallel execution actually crossed the fabric.
      EXPECT_GT(stats.transport.halo_frames, 0u);
      EXPECT_GT(stats.transport.halo_bytes, 0u);
      std::size_t halo_tiles = 0;
      for (const FleetNodeStats& node : stats.nodes) {
        halo_tiles += node.halo_tiles_served;
      }
      EXPECT_GT(halo_tiles, 0u);
    }
  }

  // The partition map moves work, never values: hash placement and explicit
  // pins must reproduce the same bits.
  for (const char* partition : {"hash", "proxy-a=1,proxy-b=1,proxy-mp=0"}) {
    FleetCoordinator fleet(fleet_vdp(), fleet_options(2, partition));
    for (FleetModel& model : zoo.models()) fleet.register_model(std::move(model));
    fleet.start();
    const std::vector<dnn::Tensor> logits = fleet_replay(fleet, trace);
    fleet.stop();
    expect_bit_identical(reference, logits, std::string("partition ") + partition);
  }
}

TEST(FleetDse, DistributedSweepBitIdenticalAndWarmUnionReRunIsFree) {
  core::DseSweep sweep;
  sweep.conv_unit_sizes = {10, 20, 30};
  sweep.fc_unit_sizes = {100, 150};
  sweep.conv_unit_counts = {50, 100};
  sweep.fc_unit_counts = {30, 60};
  const std::vector<dnn::ModelSpec> models{dnn::lenet5_spec(),
                                           dnn::cnn_cifar10_spec()};

  // Single-engine reference front.
  core::DseEngine reference_engine;
  const core::DseResult reference = reference_engine.run(sweep, models);
  ASSERT_FALSE(reference.points.empty());

  Zoo zoo;
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::atomic<std::size_t> evaluator_calls{0};
    const core::DseCandidateEvaluator counting =
        [&evaluator_calls](const core::DseCandidate& c,
                           const dnn::ModelSpec& model) {
          ++evaluator_calls;
          return core::CrossLightAccelerator(c.config).evaluate(model);
        };

    FleetCoordinator fleet(fleet_vdp(), fleet_options(nodes));
    for (FleetModel& model : zoo.models()) fleet.register_model(std::move(model));
    fleet.start();

    const FleetDseResult cold = fleet.run_dse(sweep, models, counting);
    // The grid is striped: every evaluation paid exactly once, fleet-wide.
    EXPECT_EQ(cold.total_evaluations(), evaluator_calls.load());
    EXPECT_EQ(cold.total_evaluations(),
              core::DseEngine::admit(sweep).size() * models.size());
    ASSERT_EQ(cold.node_evaluations.size(), nodes);
    for (const std::size_t paid : cold.node_evaluations) {
      if (nodes > 1) {
        EXPECT_GT(paid, 0u) << "striping skipped a node";
      }
      (void)paid;
    }

    // Ranked points and Pareto front: bit-identical to the single engine.
    ASSERT_EQ(cold.result.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(cold.result.points[i].candidate_id, reference.points[i].candidate_id);
      EXPECT_EQ(cold.result.points[i].avg_fps, reference.points[i].avg_fps);
      EXPECT_EQ(cold.result.points[i].avg_epb_pj, reference.points[i].avg_epb_pj);
      EXPECT_EQ(cold.result.points[i].area_mm2, reference.points[i].area_mm2);
      EXPECT_EQ(cold.result.points[i].avg_power_w, reference.points[i].avg_power_w);
    }
    ASSERT_EQ(cold.result.pareto.size(), reference.pareto.size());
    for (std::size_t i = 0; i < reference.pareto.size(); ++i) {
      EXPECT_EQ(cold.result.pareto[i].candidate_id, reference.pareto[i].candidate_id);
      EXPECT_EQ(cold.result.pareto[i].avg_fps, reference.pareto[i].avg_fps);
    }

    // Warm re-run: the merged union memo reached every node, so NOBODY pays
    // an evaluator call — on any stripe assignment.
    const std::size_t cold_calls = evaluator_calls.load();
    const FleetDseResult warm = fleet.run_dse(sweep, models, counting);
    EXPECT_EQ(evaluator_calls.load(), cold_calls) << "warm fleet re-run re-evaluated";
    EXPECT_EQ(warm.total_evaluations(), 0u);
    ASSERT_EQ(warm.result.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(warm.result.points[i].avg_fps, reference.points[i].avg_fps);
    }

    // The union memo survives export: a brand-new fleet pre-warmed with it
    // also evaluates nothing.
    const core::DseMemo exported = fleet.export_memo();
    fleet.stop();
    EXPECT_EQ(exported.size(),
              core::DseEngine::admit(sweep).size() * models.size());

    FleetCoordinator rewarmed(fleet_vdp(), fleet_options(2));
    for (FleetModel& model : zoo.models()) {
      rewarmed.register_model(std::move(model));
    }
    EXPECT_EQ(rewarmed.import_memo(exported), exported.size());
    rewarmed.start();
    const std::size_t before = evaluator_calls.load();
    const FleetDseResult inherited = rewarmed.run_dse(sweep, models, counting);
    rewarmed.stop();
    // Covered candidates are never striped, so the pre-warmed coordinator
    // assigns no work and nobody evaluates anything.
    EXPECT_EQ(evaluator_calls.load(), before);
    EXPECT_EQ(inherited.total_evaluations(), 0u);
    ASSERT_EQ(inherited.result.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(inherited.result.points[i].avg_fps, reference.points[i].avg_fps);
    }
  }
}

// --- error paths -------------------------------------------------------------

TEST(FleetErrors, UnknownModelAndBadShapeSurfaceAsErrors) {
  Zoo zoo;
  FleetCoordinator fleet(fleet_vdp(), fleet_options(2));
  for (FleetModel& model : zoo.models()) fleet.register_model(std::move(model));
  fleet.start();

  EXPECT_THROW((void)fleet.submit("nope", dnn::Tensor({1, 1, 12, 12})),
               std::invalid_argument);

  // A shape the node-side runtime rejects comes back as a failed future
  // carrying the node's error, not a hang or a silent drop.
  auto bad = fleet.submit("proxy-a", dnn::Tensor({1, 3, 3}));
  EXPECT_THROW((void)bad.get(), std::runtime_error);

  // And the fleet still works afterwards.
  const std::vector<dnn::Tensor> trace = proxy_trace(6);
  const std::vector<dnn::Tensor> reference = reference_logits(zoo, trace);
  const std::vector<dnn::Tensor> logits = fleet_replay(fleet, trace);
  fleet.stop();
  expect_bit_identical(reference, logits, "after error");
}

TEST(FleetErrors, ValidationAndLifecycle) {
  FleetOptions zero;
  zero.nodes = 0;
  EXPECT_THROW((void)FleetCoordinator(fleet_vdp(), zero), std::invalid_argument);

  FleetOptions pinned = fleet_options(2, "proxy-a=5");
  EXPECT_THROW((void)FleetCoordinator(fleet_vdp(), pinned), std::invalid_argument);

  Zoo zoo;
  FleetCoordinator fleet(fleet_vdp(), fleet_options(1));
  EXPECT_THROW(fleet.start(), std::logic_error);  // No models registered.
  EXPECT_THROW((void)fleet.submit("proxy-a", dnn::Tensor({1, 1, 12, 12})),
               std::runtime_error);  // Not started.
  for (FleetModel& model : zoo.models()) fleet.register_model(std::move(model));
  fleet.start();
  EXPECT_THROW(fleet.register_model(FleetModel{}), std::logic_error);
  EXPECT_EQ(fleet.owner_of("proxy-a"), 0u);
  fleet.stop();
  fleet.stop();  // Idempotent.
}

}  // namespace
}  // namespace xl::fleet

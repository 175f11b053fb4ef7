// fleet_inference — the xl::fleet subsystem in one tour.
//
// Demonstrates the coordinator -> transport -> nodes pipeline end to end:
//   1. build a small zoo: two data-parallel proxies plus one model-parallel
//      proxy (its final Dense layer is split column-wise across the fleet,
//      with halo exchange of the boundary activations);
//   2. replay the same mixed-model trace on a 1-node and a 2-node fleet
//      built from the same api::Session, and show the logits are
//      bit-identical (the fleet determinism contract: partitioning decides
//      *where* work runs, never the values);
//   3. run the same DSE sweep distributed over both fleets: the evaluation
//      work is striped across nodes, the merged memo makes the warm re-run
//      free, and an exported memo pre-warms a brand-new fleet;
//   4. show the fabric telemetry (frames, halo traffic, DSE bytes).
#include <cstdio>
#include <future>
#include <vector>

#include "api/api.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "fleet/fleet.hpp"
#include "numerics/rng.hpp"

namespace {

xl::dnn::Network make_proxy(unsigned seed) {
  xl::numerics::Rng rng(seed);
  return xl::dnn::build_table1_proxy_mlp(rng);
}

/// Model name for request i: the trace cycles dp-a, dp-b, mp.
const char* trace_model(std::size_t i) {
  switch (i % 3) {
    case 0: return "proxy-a";
    case 1: return "proxy-b";
    default: return "proxy-mp";
  }
}

struct ReplayOutcome {
  std::vector<xl::dnn::Tensor> logits;  // Per request, admission order.
  xl::fleet::FleetStats stats;
};

ReplayOutcome replay(xl::api::Session& session, std::size_t nodes,
                     const std::vector<xl::dnn::Tensor>& trace,
                     xl::dnn::Network& proxy_a, xl::dnn::Network& proxy_b,
                     xl::dnn::Network& proxy_mp) {
  using namespace xl;
  fleet::FleetOptions options;
  options.nodes = nodes;
  options.serving.workers = 2;
  options.serving.max_batch = 8;
  options.serving.deadline_us = 200.0;

  auto coordinator = session.fleet(options);
  coordinator->register_model({serve::ServedModel{"proxy-a", &proxy_a,
                                                  [] { return make_proxy(21); },
                                                  {1, 1, 12, 12},
                                                  {},
                                                  {}},
                               /*model_parallel=*/false});
  coordinator->register_model({serve::ServedModel{"proxy-b", &proxy_b,
                                                  [] { return make_proxy(77); },
                                                  {1, 1, 12, 12},
                                                  {},
                                                  {}},
                               /*model_parallel=*/false});
  coordinator->register_model({serve::ServedModel{"proxy-mp", &proxy_mp,
                                                  [] { return make_proxy(33); },
                                                  {1, 1, 12, 12},
                                                  {},
                                                  {}},
                               /*model_parallel=*/true});
  coordinator->start();

  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    futures.push_back(coordinator->submit(trace_model(i), trace[i]));
  }
  ReplayOutcome outcome;
  for (auto& future : futures) outcome.logits.push_back(future.get().logits);

  // Distributed DSE: a small sweep striped over the nodes, assembled on
  // the coordinator from the merged memo. The warm re-run is free — the
  // union cache already covers the whole grid.
  core::DseSweep sweep;
  sweep.conv_unit_sizes = {10, 20, 30};
  sweep.fc_unit_sizes = {100, 150};
  sweep.conv_unit_counts = {50, 100};
  sweep.fc_unit_counts = {30, 60};
  const std::vector<dnn::ModelSpec> models = dnn::table1_models();
  const fleet::FleetDseResult cold = coordinator->run_dse(sweep, models);
  const fleet::FleetDseResult warm = coordinator->run_dse(sweep, models);

  std::printf("  %zu-node DSE: %zu points, best (N=%zu, K=%zu)", nodes,
              cold.result.points.size(), cold.result.best().conv_unit_size,
              cold.result.best().fc_unit_size);
  std::printf(" | cold evals by rank: [");
  for (std::size_t r = 0; r < cold.node_evaluations.size(); ++r) {
    std::printf("%s%zu", r ? ", " : "", cold.node_evaluations[r]);
  }
  std::printf("] | warm re-run evals: %zu\n", warm.total_evaluations());

  // A brand-new fleet inherits the work through the portable memo.
  auto inheritor = session.fleet(options);
  inheritor->register_model({serve::ServedModel{"proxy-a", &proxy_a,
                                                [] { return make_proxy(21); },
                                                {1, 1, 12, 12},
                                                {},
                                                {}},
                             false});
  inheritor->start();
  inheritor->import_memo(coordinator->export_memo());
  const fleet::FleetDseResult inherited = inheritor->run_dse(sweep, models);
  std::printf("  pre-warmed fresh fleet evals: %zu (memo of %zu entries)\n",
              inherited.total_evaluations(), coordinator->export_memo().size());
  inheritor->stop();

  coordinator->stop();
  outcome.stats = coordinator->stats();
  return outcome;
}

}  // namespace

int main() {
  using namespace xl;
  std::printf("=== xl::fleet — transport-abstracted multi-node serving + DSE ===\n\n");

  api::SimConfig config;
  config.vdp.effects = core::EffectConfig::parse("thermal,noise");
  api::Session session(config);

  dnn::Network proxy_a = make_proxy(21);
  dnn::Network proxy_b = make_proxy(77);
  dnn::Network proxy_mp = make_proxy(33);

  const dnn::Dataset data =
      dnn::generate_classification(dnn::table1_proxy_task(), 48, /*salt=*/7);
  const std::vector<dnn::Tensor> trace =
      serve::make_mixed_size_trace(data, /*requests=*/24, /*max_rows=*/4);
  std::printf("zoo: proxy-a, proxy-b (data-parallel), proxy-mp (model-parallel)\n");
  std::printf("trace: %zu mixed-size requests cycling the three models\n\n", trace.size());

  std::printf("fleet of 1:\n");
  const ReplayOutcome one = replay(session, 1, trace, proxy_a, proxy_b, proxy_mp);
  std::printf("\nfleet of 2:\n");
  const ReplayOutcome two = replay(session, 2, trace, proxy_a, proxy_b, proxy_mp);

  auto fabric = [](const char* tag, const fleet::FleetStats& s) {
    std::printf("%s: %zu requests | %zu frames, %zu payload bytes | halo %zu "
                "frames / %zu bytes | dse %zu bytes\n",
                tag, s.requests, static_cast<std::size_t>(s.transport.frames),
                static_cast<std::size_t>(s.transport.payload_bytes),
                static_cast<std::size_t>(s.transport.halo_frames),
                static_cast<std::size_t>(s.transport.halo_bytes),
                static_cast<std::size_t>(s.transport.dse_bytes));
  };
  std::printf("\n");
  fabric("1 node ", one.stats);
  fabric("2 nodes", two.stats);

  // The determinism contract: same trace, different node counts and
  // partition maps — bit-identical logits per request.
  bool identical = one.logits.size() == two.logits.size();
  for (std::size_t i = 0; identical && i < one.logits.size(); ++i) {
    identical = one.logits[i].numel() == two.logits[i].numel();
    for (std::size_t j = 0; identical && j < one.logits[i].numel(); ++j) {
      identical = one.logits[i][j] == two.logits[i][j];
    }
  }
  std::printf("\nlogits bit-identical across node counts: %s\n",
              identical ? "yes" : "NO (determinism contract violated!)");
  return identical ? 0 : 1;
}

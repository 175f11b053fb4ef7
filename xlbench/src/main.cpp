// xlbench — one run of the repository benchmark.
//
//   xlbench --workload <cnn-accuracy|serve-open|dse-sweep> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Every run sets up and measures all three studies (accuracy sweep,
// open-loop serving, DSE sweep), so every run reports every metric; the
// workload names the study that gets 40% of the measuring time (the other
// two get 30% each) and whose main loop the traced run compares
// traced vs untraced for trace.overhead_frac. With --trace 0 the run prints
// the end-to-end metrics, measured with tracing off; with --trace 1 it
// prints the per-layer metrics derived from the spans it recorded, and
// writes those spans as Chrome trace-event JSON to --trace-out.
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it stamps the environment. Exit status is 0 only when
// every correctness check held.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/task_pool.hpp"
#include "numerics/kernels.hpp"
#include "stats.hpp"
#include "studies.hpp"

namespace {

constexpr std::size_t kSetupReps = 5;
/// Interleaved slices per study. The host's speed drifts over seconds, so
/// short slices spread every study's samples over the whole run.
constexpr std::size_t kCycles = 12;
constexpr std::array<const char*, 3> kWorkloads = {"cnn-accuracy", "serve-open",
                                                   "dse-sweep"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xlbench: %s\nusage: xlbench --workload <cnn-accuracy|serve-open|dse-sweep> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0 && a.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown or missing --workload");
  if (!have_seed || a.seconds == 0.0) usage("--seed and --seconds are required");
  return a;
}

std::string env_json() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"exec_width\": %zu, \"isa\": \"%s\", \"nproc\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\"}",
                xl::exec::width(), xl::numerics::kernels::active_isa_name(),
                std::thread::hardware_concurrency(), XLB_COMPILER, XLB_BUILD_TYPE);
  return buf;
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  const std::string type = XLB_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xlb;
  const Args args = parse(argc, argv);
  const std::string env = env_json();
  std::printf("{\"env\": %s}\n", env.c_str());
  if (!optimized_build()) {
    std::fprintf(stderr, "xlbench: refusing to measure a non-optimized build (%s)\n",
                 XLB_BUILD_TYPE);
    return 3;
  }

  Checks checks;
  Metrics metrics;

  // Set-up: the networks, datasets, sessions and the started serving
  // runtime (with its per-shard plan compile), built several times, each
  // time scaled by the host speed sampled just before it; the last set is
  // kept.
  std::vector<double> setup_us;
  std::vector<double> setup_raw_us;
  std::unique_ptr<Study> studies[3];
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    for (auto& s : studies) s.reset();
    HostSpeed host;
    host.sample();
    const auto t0 = Clock::now();
    studies[0] = make_cnn_study(args.seed);
    studies[1] = make_serve_study(args.seed);
    studies[2] = make_dse_study();
    setup_raw_us.push_back(us_between(t0, Clock::now()));
    setup_us.push_back(host.time(setup_raw_us.back()));
  }
  std::printf("setup: median %.3f s as measured, %.3f s at the reference host speed\n",
              median(setup_raw_us) / 1e6, median(setup_us) / 1e6);

  const auto budget_s = [&](std::size_t i) {
    return args.seconds * (args.workload == kWorkloads[i] ? 0.4 : 0.3);
  };
  Tracer tracer(args.trace);
  if (args.trace) {
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
      studies[i]->trace(budget_s(i), args.workload == kWorkloads[i], tracer, metrics,
                        checks);
    }
  } else {
    // Slices of the three studies interleave across the whole run, so a
    // burst of load from elsewhere on the machine lands on a share of every
    // study's samples instead of on all samples of one study. The host speed
    // is sampled before every slice, so each study's scale comes from the
    // same stretches of the run as its own samples.
    metrics.set("setup_s", median(setup_us) / 1e6, "s");
    std::array<HostSpeed, kWorkloads.size()> host;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
        host[i].sample();
        studies[i]->measure(budget_s(i) / kCycles, checks);
      }
    }
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
      studies[i]->report(metrics, checks, host[i]);
    }
  }
  for (auto& s : studies) s.reset();

  if (args.trace && !args.trace_out.empty()) {
    const std::string meta = "{\"workload\": \"" + args.workload +
                             "\", \"seed\": " + std::to_string(args.seed) +
                             ", \"env\": " + env + "}";
    if (!tracer.write_chrome_json(args.trace_out, meta)) {
      checks.fail("cannot write trace file " + args.trace_out);
    }
  }

  std::string out = "{\"metrics\": {";
  bool first = true;
  for (const auto& m : metrics.entries()) {
    double value = m.value;
    if (!std::isfinite(value)) {
      checks.fail("metric " + m.name + " is not finite");
      value = -1.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    out += buf;
    first = false;
  }
  char head[160];
  std::snprintf(head, sizeof(head), "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                checks.failed() == 0 ? "true" : "false", checks.attempted(),
                checks.failed());
  out = head + out.substr(1) + "}}";
  std::printf("%s\n", out.c_str());
  return checks.failed() == 0 ? 0 : 1;
}

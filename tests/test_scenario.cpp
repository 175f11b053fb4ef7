// The scenario DSL's contracts: fail-loudly parsing (unknown sections and
// keys rejected by name, typed values, undefined ${var} and cyclic include
// errors naming their source), the expression grammar, include/override
// merge semantics, arrival-process row shapes, the serialize round trip —
// parse(serialize(spec)) is the identity on the canonical form — and the
// one-to-one pairing of corpus scenarios with their goldens.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "scenario/scenario.hpp"

namespace {

using namespace xl;
using scenario::ScenarioDocument;
using scenario::ScenarioSpec;

ScenarioSpec parse_text(const std::string& text) {
  return ScenarioSpec::parse(ScenarioDocument::parse_text(text, "mem://test.ini"));
}

/// The message of the std::exception `fn` must throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

TEST(Scenario, TypedValuesExpressionsAndVarsLower) {
  const ScenarioSpec spec = parse_text(R"(
[scenario]
name = typed
mode = serve

[vars]
workers = 2
period_us = 100

[architecture]
N = 10
K = 50
variant = opt

[datapath]
resolution_bits = 8

[effects]
stages = thermal, noise
seed = 0xBADFAB
thermal.dt_us = ${period_us} / 100

[eval]
samples = 8 * (2 + 2)

[arrivals]
process = poisson
rate_per_s = 2 * 2000

[serving]
workers = ${workers}
)");
  EXPECT_EQ(spec.name, "typed");
  EXPECT_EQ(spec.mode, scenario::Mode::kServe);
  EXPECT_EQ(spec.config.architecture.conv_unit_size, 10u);
  EXPECT_EQ(spec.config.architecture.fc_unit_size, 50u);
  EXPECT_EQ(spec.config.architecture.variant, core::Variant::kOpt);
  EXPECT_EQ(spec.config.vdp.resolution_bits, 8u);
  // Eq. 8 crosstalk stays on unless the stages list says "nocrosstalk".
  EXPECT_TRUE(spec.config.vdp.effects.crosstalk);
  EXPECT_TRUE(spec.config.vdp.effects.thermal);
  EXPECT_TRUE(spec.config.vdp.effects.noise);
  // Seeds parse as integers, never through the double grammar (2^53 safe).
  EXPECT_EQ(spec.config.vdp.effects.seed, 0xBADFABu);
  EXPECT_DOUBLE_EQ(spec.config.vdp.effects.thermal_stage.dt_us, 1.0);
  EXPECT_EQ(spec.config.functional_samples, 32u);
  EXPECT_EQ(spec.arrivals.process, scenario::ArrivalSpec::Process::kPoisson);
  EXPECT_DOUBLE_EQ(spec.arrivals.rate_per_s, 4000.0);
  EXPECT_EQ(spec.serving.workers, 2u);
}

TEST(Scenario, UnknownSectionRejectedByName) {
  // A typo, a section the DSL no longer has ([fleet]) and an x- prefixed
  // section: all must fail loudly by name rather than be ignored wholesale.
  for (const std::string section : {"scenaro", "fleet", "x-sweep"}) {
    SCOPED_TRACE(section);
    const std::string msg = thrown_message(
        [&] { (void)parse_text("[" + section + "]\nname = typo\n"); });
    EXPECT_NE(msg.find("unknown section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[" + section + "]"), std::string::npos) << msg;
  }
}

TEST(Scenario, UnknownModeRejectedWithTheValidModes) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[scenario]\nmode = fleet\n"); });
  EXPECT_NE(msg.find("unknown mode 'fleet'"), std::string::npos) << msg;
  const std::size_t expected = msg.find("(expected ");
  ASSERT_NE(expected, std::string::npos) << msg;
  const std::string valid = msg.substr(expected);
  EXPECT_NE(valid.find("serve"), std::string::npos) << msg;
  EXPECT_EQ(valid.find("fleet"), std::string::npos) << msg;
}

TEST(Scenario, UnknownKeyRejectedByName) {
  // A typo, and [datapath].crosstalk, a key the DSL no longer has (Eq. 8
  // crosstalk is the "nocrosstalk" stage token of [effects].stages).
  for (const auto& [section, key] : {std::pair<std::string, std::string>{"serving", "worker"},
                                     {"datapath", "crosstalk"}}) {
    SCOPED_TRACE(key);
    const std::string msg = thrown_message(
        [&] { (void)parse_text("[" + section + "]\n" + key + " = false\n"); });
    EXPECT_NE(msg.find("unknown key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[" + section + "]." + key), std::string::npos) << msg;
  }
}

TEST(Scenario, TypeMismatchNamesSectionAndKey) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[serving]\nworkers = banana\n"); });
  EXPECT_NE(msg.find("[serving].workers"), std::string::npos) << msg;
  EXPECT_THROW((void)parse_text("[serving]\nworkers = banana\n"),
               std::invalid_argument);
}

TEST(Scenario, UndefinedVarNamesTheVariable) {
  const std::string msg = thrown_message(
      [] { (void)parse_text("[serving]\nworkers = ${nope}\n"); });
  EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
}

// Hostile expressions: nesting is bounded (a stack overflow is a crash, not
// an error), the error reaches the document layer with its file:line, and a
// long flat expression parses in linear time.
TEST(ScenarioExpression, DeepParenthesesAreRejectedWithFileAndLine) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '(') + "5" + std::string(depth, ')');
  };
  EXPECT_EQ(scenario::eval_expression(nested(256)), 5.0);
  EXPECT_THROW((void)scenario::eval_expression(nested(257)), std::invalid_argument);
  const std::string msg = thrown_message(
      [&] { (void)parse_text("[serving]\nworkers = " + nested(300000) + "\n"); });
  EXPECT_NE(msg.find("nesting deeper than 256"), std::string::npos) << msg.substr(0, 300);
  EXPECT_NE(msg.find("[serving].workers"), std::string::npos) << msg.substr(0, 300);
  EXPECT_NE(msg.find("mem://test.ini:2"), std::string::npos) << msg.substr(0, 300);
  EXPECT_LT(msg.size(), 400U);  // The expression is quoted, not copied whole.
}

TEST(ScenarioExpression, DeepUnaryChainsAreBounded) {
  EXPECT_EQ(scenario::eval_expression(std::string(256, '-') + "5"), 5.0);
  EXPECT_EQ(scenario::eval_expression(std::string(255, '-') + "5"), -5.0);
  EXPECT_THROW((void)scenario::eval_expression(std::string(257, '-') + "5"),
               std::invalid_argument);
  std::string mixed;
  for (int i = 0; i < 150000; ++i) mixed += "+-";
  EXPECT_THROW((void)scenario::eval_expression(mixed + "5"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("[serving]\nworkers = " + mixed + "2\n"),
               std::invalid_argument);
}

TEST(ScenarioExpression, LongFlatSumParsesInLinearTime) {
  std::string sum = "1";
  for (int i = 0; i < 200000; ++i) sum += " + 1";
  EXPECT_EQ(scenario::eval_expression(sum), 200001.0);
  // Literals end where their own characters do: exponent signs stay in the
  // number, hex literals never take a sign.
  EXPECT_DOUBLE_EQ(scenario::eval_expression("1e+2+2e-1"), 100.2);
  EXPECT_EQ(scenario::eval_expression("0xE-1"), 13.0);
  EXPECT_EQ(scenario::eval_expression("3-2"), 1.0);
  EXPECT_THROW((void)scenario::eval_expression("1e+"), std::invalid_argument);
}

TEST(Scenario, CyclicIncludeNamesTheChain) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xl_scenario_cycle_test";
  fs::create_directories(dir);
  std::ofstream(dir / "a.ini") << "include b.ini\n[scenario]\nname = a\n";
  std::ofstream(dir / "b.ini") << "include a.ini\n";
  const std::string msg = thrown_message(
      [&] { (void)ScenarioDocument::parse_file((dir / "a.ini").string()); });
  EXPECT_NE(msg.find("a.ini"), std::string::npos) << msg;
  EXPECT_NE(msg.find("b.ini"), std::string::npos) << msg;
  EXPECT_THROW((void)ScenarioDocument::parse_file((dir / "a.ini").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(Scenario, IncludeMergesWithOverride) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xl_scenario_merge_test";
  fs::create_directories(dir);
  std::ofstream(dir / "base.ini") << "[serving]\nworkers = 2\nmax_batch = 4\n";
  std::ofstream(dir / "top.ini")
      << "include base.ini\n[scenario]\nname = top\n[serving]\nworkers = 8\n";
  const ScenarioSpec spec =
      ScenarioSpec::load((dir / "top.ini").string());
  // Later keys override, untouched keys from the include survive.
  EXPECT_EQ(spec.serving.workers, 8u);
  EXPECT_EQ(spec.serving.max_batch, 4u);
  fs::remove_all(dir);
}

TEST(Scenario, ArrivalProcessesShapeRowsIdentically) {
  scenario::ArrivalSpec burst;
  burst.requests = 6;
  EXPECT_EQ(burst.request_rows(8),
            (std::vector<std::size_t>{1, 2, 3, 4, 1, 2}));
  // Poisson emits the same canonical cycle — gaps shape timing only.
  scenario::ArrivalSpec poisson = burst;
  poisson.process = scenario::ArrivalSpec::Process::kPoisson;
  EXPECT_EQ(poisson.request_rows(8), burst.request_rows(8));
  // Rows cap at max_batch, mirroring make_mixed_size_trace.
  EXPECT_EQ(burst.request_rows(2), (std::vector<std::size_t>{1, 2, 2, 2, 1, 2}));
  scenario::ArrivalSpec trace;
  trace.process = scenario::ArrivalSpec::Process::kTrace;
  trace.trace = {1, 9, 2};
  EXPECT_EQ(trace.request_rows(8), (std::vector<std::size_t>{1, 8, 2}));
}

TEST(Scenario, SerializeRoundTripIsIdentity) {
  // A spec touching every section must survive parse -> serialize -> parse
  // with the canonical form reproduced byte for byte (spec equality).
  const ScenarioSpec spec = parse_text(R"(
[scenario]
name = roundtrip
description = full-surface scenario
mode = serve

[vars]
rate = 4000

[architecture]
N = 10
K = 50
n = 50
m = 30
variant = opt

[datapath]
resolution_bits = 8

[effects]
stages = fpv, noise, nocrosstalk
seed = 0xBADFAB
fpv.design = conventional
fpv.trim_residual_fraction = 0.08
noise.optical_power_mw = 0.05

[models]
models = lenet5, cnn_cifar10
backends = crosslight:opt

[eval]
samples = 16
train_epochs = 4

[arrivals]
process = poisson
requests = 24
rate_per_s = ${rate}
seed = 7

[serving]
workers = 2
max_batch = 4
deadline_us = 1500
tenants = 2
)");
  const std::string canon = spec.serialize();
  const ScenarioSpec again =
      ScenarioSpec::parse(ScenarioDocument::parse_text(canon, "mem://canon.ini"));
  EXPECT_EQ(again.serialize(), canon);
  EXPECT_EQ(again.name, spec.name);
  EXPECT_EQ(again.mode, spec.mode);
  EXPECT_EQ(again.models, spec.models);
  EXPECT_EQ(again.backends, spec.backends);
  EXPECT_EQ(again.config.vdp.effects.seed, spec.config.vdp.effects.seed);
  EXPECT_FALSE(again.config.vdp.effects.crosstalk);
  EXPECT_EQ(again.tenants, 2u);
  EXPECT_DOUBLE_EQ(again.arrivals.rate_per_s, 4000.0);

  // The default-constructed spec round-trips too (the "none" stage-token
  // encoding: no stages but Eq. 8 crosstalk on).
  const ScenarioSpec minimal = parse_text("[scenario]\nname = minimal\n");
  const std::string minimal_canon = minimal.serialize();
  EXPECT_EQ(ScenarioSpec::parse(ScenarioDocument::parse_text(
                                    minimal_canon, "mem://minimal.ini"))
                .serialize(),
            minimal_canon);
}

TEST(Scenario, CorpusScenariosParseValidateAndRoundTrip) {
  // Every committed scenario must load, validate, and survive the round
  // trip; XL_SCENARIO_DIR (or the baked-in source path) locates the corpus.
  const std::vector<std::string> corpus{
      "paper-repro",     "thermal-stress", "noisy-fab",
      "flash-crowd",     "multi-tenant-mixed", "dse-budget-sweep",
      "bench-fig4",      "bench-fig5",     "quickstart",
      "serving-demo"};
  for (const std::string& name : corpus) {
    SCOPED_TRACE(name);
    const ScenarioSpec spec = ScenarioSpec::load(scenario::scenario_path(name));
    spec.validate();
    EXPECT_EQ(spec.name, name);
    const std::string canon = spec.serialize();
    EXPECT_EQ(ScenarioSpec::parse(
                  ScenarioDocument::parse_text(canon, "mem://" + name))
                  .serialize(),
              canon);
  }
}

TEST(Scenario, CorpusScenariosAndGoldensPairOneToOne) {
  // CI diffs each scenarios/<name>.ini run against scenarios/golden/
  // <name>.json, iterating the .ini files: a golden whose scenario is gone
  // would never be checked, and a scenario without a golden fails only in
  // CI. The two name sets must be equal.
  namespace fs = std::filesystem;
  const auto stems = [](const fs::path& dir, const std::string& extension) {
    std::set<std::string> names;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() && entry.path().extension() == extension) {
        names.insert(entry.path().stem().string());
      }
    }
    return names;
  };
  const fs::path dir = scenario::default_scenario_dir();
  const std::set<std::string> scenarios = stems(dir, ".ini");
  EXPECT_FALSE(scenarios.empty()) << dir;
  EXPECT_EQ(scenarios, stems(dir / "golden", ".json")) << dir;
}

}  // namespace

#include "scenario/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "dnn/models.hpp"

namespace xl::scenario {

namespace {

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string fmt(std::size_t value) { return std::to_string(value); }
std::string fmt(int value) { return std::to_string(value); }
std::string fmt(bool value) { return value ? "true" : "false"; }

template <typename T>
std::string join(const std::vector<T>& values) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ", ";
    if constexpr (std::is_same_v<T, std::string>) {
      out += v;
    } else {
      out += fmt(v);
    }
  }
  return out;
}

core::Variant variant_from_token(const std::string& token, const std::string& where) {
  if (token == "base") return core::Variant::kBase;
  if (token == "base_ted") return core::Variant::kBaseTed;
  if (token == "opt") return core::Variant::kOpt;
  if (token == "opt_ted") return core::Variant::kOptTed;
  throw std::invalid_argument("scenario: " + where + ": unknown variant '" + token +
                              "' (expected base|base_ted|opt|opt_ted)");
}

/// Canonical stage-token encoding whose EffectConfig::parse round-trip is
/// the identity (summary() alone is not: its "none" means all-off, while
/// parse("none") keeps the legacy crosstalk-on datapath).
std::string effect_stage_tokens(const core::EffectConfig& effects) {
  std::string out;
  const auto add = [&out](const char* token) {
    if (!out.empty()) out += ',';
    out += token;
  };
  if (effects.thermal) add("thermal");
  if (effects.fpv) add("fpv");
  if (effects.noise) add("noise");
  if (!effects.crosstalk) add("nocrosstalk");
  return out.empty() ? "none" : out;
}

}  // namespace

std::string variant_token(core::Variant v) {
  switch (v) {
    case core::Variant::kBase: return "base";
    case core::Variant::kBaseTed: return "base_ted";
    case core::Variant::kOpt: return "opt";
    case core::Variant::kOptTed: return "opt_ted";
  }
  throw std::invalid_argument("scenario: unknown variant enum value");
}

core::Variant variant_from_name(const std::string& token) {
  return variant_from_token(token, "variant");
}

std::string mode_name(Mode mode) {
  switch (mode) {
    case Mode::kEvaluate: return "evaluate";
    case Mode::kFunctional: return "functional";
    case Mode::kDse: return "dse";
    case Mode::kServe: return "serve";
  }
  throw std::invalid_argument("scenario: unknown mode enum value");
}

Mode mode_from_name(const std::string& name) {
  if (name == "evaluate") return Mode::kEvaluate;
  if (name == "functional") return Mode::kFunctional;
  if (name == "dse") return Mode::kDse;
  if (name == "serve") return Mode::kServe;
  throw std::invalid_argument(
      "scenario: [scenario].mode: unknown mode '" + name +
      "' (expected evaluate|functional|dse|serve)");
}

const char* ArrivalSpec::process_name(Process p) {
  switch (p) {
    case Process::kBurst: return "burst";
    case Process::kPoisson: return "poisson";
    case Process::kTrace: return "trace";
  }
  throw std::invalid_argument("scenario: unknown arrival process enum value");
}

ArrivalSpec::Process ArrivalSpec::process_from_name(const std::string& name) {
  if (name == "burst") return Process::kBurst;
  if (name == "poisson") return Process::kPoisson;
  if (name == "trace") return Process::kTrace;
  throw std::invalid_argument("scenario: [arrivals].process: unknown process '" +
                              name + "' (expected burst|poisson|trace)");
}

std::vector<std::size_t> ArrivalSpec::request_rows(std::size_t max_rows) const {
  std::vector<std::size_t> rows;
  if (process == Process::kTrace) {
    rows.reserve(trace.size());
    for (const std::size_t r : trace) rows.push_back(std::min(r, max_rows));
  } else {
    // The canonical mixed-size cycle of serve::make_mixed_size_trace, so
    // burst and Poisson scenarios replay the exact workload every serving
    // determinism claim in the repo is pinned to.
    rows.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      rows.push_back(std::min<std::size_t>(1 + i % 4, max_rows));
    }
  }
  return rows;
}

ScenarioSpec ScenarioSpec::parse(const ScenarioDocument& doc) {
  ScenarioSpec spec;

  // Reject unknown sections by name before touching any key: a misspelled
  // section would otherwise be ignored wholesale.
  const std::set<std::string> known = {"scenario", "vars",     "architecture",
                                       "datapath", "effects",  "models",
                                       "eval",     "arrivals", "serving",
                                       "dse"};
  for (const std::string& name : doc.section_names()) {
    if (known.count(name) == 0) {
      throw std::invalid_argument("scenario: unknown section [" + name + "] in " +
                                  doc.path());
    }
  }

  {
    SectionReader s(doc, "scenario");
    spec.name = s.get_string("name", spec.name);
    spec.description = s.get_string("description", spec.description);
    spec.mode = mode_from_name(s.get_string("mode", mode_name(spec.mode)));
    s.finish();
  }

  {
    SectionReader s(doc, "architecture");
    core::ArchitectureConfig& a = spec.config.architecture;
    a.conv_unit_size = s.get_size("N", a.conv_unit_size);
    a.fc_unit_size = s.get_size("K", a.fc_unit_size);
    a.conv_units = s.get_size("n", a.conv_units);
    a.fc_units = s.get_size("m", a.fc_units);
    a.mrs_per_bank = s.get_size("mrs_per_bank", a.mrs_per_bank);
    a.resolution_bits = s.get_int("resolution_bits", a.resolution_bits);
    a.variant = variant_from_token(s.get_string("variant", variant_token(a.variant)),
                                   s.where("variant"));
    a.pitch_ted_um = s.get_double("pitch_ted_um", a.pitch_ted_um);
    a.pitch_guard_um = s.get_double("pitch_guard_um", a.pitch_guard_um);
    s.finish();
    // The datapath view mirrors the architecture resolution unless the
    // [datapath] section overrides it (the CLI's --resolution contract).
    spec.config.vdp.resolution_bits = a.resolution_bits;
  }

  {
    SectionReader s(doc, "datapath");
    core::VdpSimOptions& v = spec.config.vdp;
    v.mrs_per_bank = s.get_size("mrs_per_bank", v.mrs_per_bank);
    v.resolution_bits = s.get_int("resolution_bits", v.resolution_bits);
    v.q_factor = s.get_double("q_factor", v.q_factor);
    v.fsr_nm = s.get_double("fsr_nm", v.fsr_nm);
    v.center_wavelength_nm = s.get_double("center_wavelength_nm", v.center_wavelength_nm);
    s.finish();
  }

  {
    SectionReader s(doc, "effects");
    core::EffectConfig& e = spec.config.vdp.effects;
    const std::string stages = s.get_string("stages", effect_stage_tokens(e));
    try {
      e = core::EffectConfig::parse(stages);
    } catch (const std::invalid_argument& err) {
      throw std::invalid_argument("scenario: " + s.where("stages") + ": " +
                                  err.what());
    }
    e.seed = s.get_uint64("seed", e.seed);
    e.thermal_stage.pitch_um = s.get_double("thermal.pitch_um", e.thermal_stage.pitch_um);
    e.thermal_stage.use_ted = s.get_bool("thermal.use_ted", e.thermal_stage.use_ted);
    e.thermal_stage.ambient_drift_nm =
        s.get_double("thermal.ambient_drift_nm", e.thermal_stage.ambient_drift_nm);
    e.thermal_stage.ambient_period_us =
        s.get_double("thermal.ambient_period_us", e.thermal_stage.ambient_period_us);
    e.thermal_stage.dt_us = s.get_double("thermal.dt_us", e.thermal_stage.dt_us);
    const std::string design = s.get_string(
        "fpv.design", e.fpv_stage.design == photonics::MrDesignKind::kOptimized
                          ? "optimized"
                          : "conventional");
    if (design == "optimized") {
      e.fpv_stage.design = photonics::MrDesignKind::kOptimized;
    } else if (design == "conventional") {
      e.fpv_stage.design = photonics::MrDesignKind::kConventional;
    } else {
      throw std::invalid_argument("scenario: " + s.where("fpv.design") +
                                  ": expected optimized|conventional, got '" +
                                  design + "'");
    }
    e.fpv_stage.pitch_um = s.get_double("fpv.pitch_um", e.fpv_stage.pitch_um);
    e.fpv_stage.trim_residual_fraction = s.get_double(
        "fpv.trim_residual_fraction", e.fpv_stage.trim_residual_fraction);
    e.noise_stage.optical_power_mw =
        s.get_double("noise.optical_power_mw", e.noise_stage.optical_power_mw);
    s.finish();
  }

  {
    SectionReader s(doc, "models");
    spec.models = s.get_string_list("models", spec.models);
    spec.backends = s.get_string_list("backends", spec.backends);
    if (spec.models.empty()) {
      throw std::invalid_argument("scenario: " + s.where("models") +
                                  ": at least one model is required");
    }
    if (spec.backends.empty()) {
      throw std::invalid_argument("scenario: " + s.where("backends") +
                                  ": at least one backend is required");
    }
    s.finish();
  }

  {
    SectionReader s(doc, "eval");
    spec.config.functional_samples =
        s.get_size("samples", spec.config.functional_samples);
    spec.config.eval_batch_size = s.get_size("batch_size", spec.config.eval_batch_size);
    spec.train_epochs = s.get_size("train_epochs", spec.train_epochs);
    spec.config.track_layer_error =
        s.get_bool("track_layer_error", spec.config.track_layer_error);
    s.finish();
  }

  {
    SectionReader s(doc, "arrivals");
    ArrivalSpec& a = spec.arrivals;
    a.process = ArrivalSpec::process_from_name(
        s.get_string("process", ArrivalSpec::process_name(a.process)));
    a.requests = s.get_size("requests", a.requests);
    a.rate_per_s = s.get_double("rate_per_s", a.rate_per_s);
    a.seed = s.get_uint64("seed", a.seed);
    a.trace = s.get_size_list("trace", a.trace);
    if (a.process == ArrivalSpec::Process::kTrace && a.trace.empty()) {
      throw std::invalid_argument("scenario: " + s.where("trace") +
                                  ": process = trace requires a non-empty trace");
    }
    for (const std::size_t rows : a.trace) {
      if (rows == 0) {
        throw std::invalid_argument("scenario: " + s.where("trace") +
                                    ": trace rows must be positive");
      }
    }
    if (a.process != ArrivalSpec::Process::kTrace && a.requests == 0) {
      throw std::invalid_argument("scenario: " + s.where("requests") +
                                  ": at least one request is required");
    }
    if (a.rate_per_s <= 0.0) {
      throw std::invalid_argument("scenario: " + s.where("rate_per_s") +
                                  ": arrival rate must be positive");
    }
    s.finish();
  }

  {
    SectionReader s(doc, "serving");
    serve::ServingOptions& o = spec.serving;
    o.workers = s.get_size("workers", o.workers);
    o.max_batch = s.get_size("max_batch", o.max_batch);
    o.deadline_us = s.get_double("deadline_us", o.deadline_us);
    o.queue_capacity = s.get_size("queue_capacity", o.queue_capacity);
    o.pace_hardware_time = s.get_bool("pace_hardware_time", o.pace_hardware_time);
    o.pace_scale = s.get_double("pace_scale", o.pace_scale);
    spec.tenants = s.get_size("tenants", spec.tenants);
    if (spec.tenants == 0) {
      throw std::invalid_argument("scenario: " + s.where("tenants") +
                                  ": at least one tenant is required");
    }
    s.finish();
  }

  {
    SectionReader s(doc, "dse");
    core::DseSweep& d = spec.config.dse;
    d.conv_unit_sizes = s.get_size_list("N", d.conv_unit_sizes);
    d.fc_unit_sizes = s.get_size_list("K", d.fc_unit_sizes);
    d.conv_unit_counts = s.get_size_list("n", d.conv_unit_counts);
    d.fc_unit_counts = s.get_size_list("m", d.fc_unit_counts);
    d.max_area_mm2 = s.get_double("max_area_mm2", d.max_area_mm2);
    d.area_budgets_mm2 = s.get_double_list("budgets_mm2", d.area_budgets_mm2);
    d.resolution_bits = s.get_int_list("resolutions", d.resolution_bits);
    std::vector<std::string> variant_tokens;
    for (const core::Variant v : d.variants) variant_tokens.push_back(variant_token(v));
    variant_tokens = s.get_string_list("variants", variant_tokens);
    d.variants.clear();
    for (const std::string& token : variant_tokens) {
      d.variants.push_back(variant_from_token(token, s.where("variants")));
    }
    spec.dse_top_k = s.get_size("top_k", spec.dse_top_k);
    spec.dse_serial = s.get_bool("serial", spec.dse_serial);
    s.finish();
    // The sweep inherits the scenario architecture as its non-swept base
    // and explores the scenario variant unless a variants axis is given.
    d.variant = spec.config.architecture.variant;
    d.base = spec.config.architecture;
  }

  spec.validate();
  return spec;
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  return parse(ScenarioDocument::parse_file(path));
}

void ScenarioSpec::validate() const {
  (void)model_zoo();  // Rejects unknown model tokens by name.
  try {
    config.validate();
    serving.validate();
  } catch (const std::invalid_argument& err) {
    throw std::invalid_argument("scenario '" + name + "': " + err.what());
  }
}

std::vector<dnn::ModelSpec> ScenarioSpec::model_zoo() const {
  const std::vector<dnn::ModelSpec> zoo = dnn::table1_models();
  std::vector<bool> selected(zoo.size(), false);
  for (const std::string& token : models) {
    if (token == "table1" || token == "all") {
      selected.assign(zoo.size(), true);
    } else if (token == "lenet5") {
      selected[0] = true;
    } else if (token == "cnn_cifar10") {
      selected[1] = true;
    } else if (token == "cnn_stl10") {
      selected[2] = true;
    } else if (token == "siamese") {
      selected[3] = true;
    } else {
      throw std::invalid_argument(
          "scenario: [models].models: unknown model '" + token +
          "' (expected table1|lenet5|cnn_cifar10|cnn_stl10|siamese)");
    }
  }
  std::vector<dnn::ModelSpec> out;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    if (selected[i]) out.push_back(zoo[i]);
  }
  return out;
}

std::string ScenarioSpec::serialize() const {
  std::string out;
  const auto kv = [&out](const std::string& key, const std::string& value) {
    out += key + " = " + value + "\n";
  };

  out += "[scenario]\n";
  kv("name", name);
  kv("description", description);
  kv("mode", mode_name(mode));

  const core::ArchitectureConfig& a = config.architecture;
  out += "\n[architecture]\n";
  kv("N", fmt(a.conv_unit_size));
  kv("K", fmt(a.fc_unit_size));
  kv("n", fmt(a.conv_units));
  kv("m", fmt(a.fc_units));
  kv("mrs_per_bank", fmt(a.mrs_per_bank));
  kv("resolution_bits", fmt(a.resolution_bits));
  kv("variant", variant_token(a.variant));
  kv("pitch_ted_um", fmt(a.pitch_ted_um));
  kv("pitch_guard_um", fmt(a.pitch_guard_um));

  const core::VdpSimOptions& v = config.vdp;
  out += "\n[datapath]\n";
  kv("mrs_per_bank", fmt(v.mrs_per_bank));
  kv("resolution_bits", fmt(v.resolution_bits));
  kv("q_factor", fmt(v.q_factor));
  kv("fsr_nm", fmt(v.fsr_nm));
  kv("center_wavelength_nm", fmt(v.center_wavelength_nm));

  const core::EffectConfig& e = v.effects;
  out += "\n[effects]\n";
  kv("stages", effect_stage_tokens(e));
  {
    char seed[32];
    std::snprintf(seed, sizeof seed, "0x%llX",
                  static_cast<unsigned long long>(e.seed));
    kv("seed", seed);
  }
  kv("thermal.pitch_um", fmt(e.thermal_stage.pitch_um));
  kv("thermal.use_ted", fmt(e.thermal_stage.use_ted));
  kv("thermal.ambient_drift_nm", fmt(e.thermal_stage.ambient_drift_nm));
  kv("thermal.ambient_period_us", fmt(e.thermal_stage.ambient_period_us));
  kv("thermal.dt_us", fmt(e.thermal_stage.dt_us));
  kv("fpv.design", e.fpv_stage.design == photonics::MrDesignKind::kOptimized
                       ? "optimized"
                       : "conventional");
  kv("fpv.pitch_um", fmt(e.fpv_stage.pitch_um));
  kv("fpv.trim_residual_fraction", fmt(e.fpv_stage.trim_residual_fraction));
  kv("noise.optical_power_mw", fmt(e.noise_stage.optical_power_mw));

  out += "\n[models]\n";
  kv("models", join(models));
  kv("backends", join(backends));

  out += "\n[eval]\n";
  kv("samples", fmt(config.functional_samples));
  kv("batch_size", fmt(config.eval_batch_size));
  kv("train_epochs", fmt(train_epochs));
  kv("track_layer_error", fmt(config.track_layer_error));

  out += "\n[arrivals]\n";
  kv("process", ArrivalSpec::process_name(arrivals.process));
  kv("requests", fmt(arrivals.requests));
  kv("rate_per_s", fmt(arrivals.rate_per_s));
  kv("seed", fmt(static_cast<std::size_t>(arrivals.seed)));
  if (!arrivals.trace.empty()) kv("trace", join(arrivals.trace));

  out += "\n[serving]\n";
  kv("workers", fmt(serving.workers));
  kv("max_batch", fmt(serving.max_batch));
  kv("deadline_us", fmt(serving.deadline_us));
  kv("queue_capacity", fmt(serving.queue_capacity));
  kv("tenants", fmt(tenants));
  kv("pace_hardware_time", fmt(serving.pace_hardware_time));
  kv("pace_scale", fmt(serving.pace_scale));

  const core::DseSweep& d = config.dse;
  out += "\n[dse]\n";
  kv("N", join(d.conv_unit_sizes));
  kv("K", join(d.fc_unit_sizes));
  kv("n", join(d.conv_unit_counts));
  kv("m", join(d.fc_unit_counts));
  if (!d.variants.empty()) {
    std::vector<std::string> tokens;
    for (const core::Variant variant : d.variants) {
      tokens.push_back(variant_token(variant));
    }
    kv("variants", join(tokens));
  }
  if (!d.resolution_bits.empty()) kv("resolutions", join(d.resolution_bits));
  if (!d.area_budgets_mm2.empty()) kv("budgets_mm2", join(d.area_budgets_mm2));
  kv("max_area_mm2", fmt(d.max_area_mm2));
  kv("top_k", fmt(dse_top_k));
  kv("serial", fmt(dse_serial));

  return out;
}

std::string default_scenario_dir() {
  if (const char* env = std::getenv("XL_SCENARIO_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef XL_SCENARIO_DIR
  return XL_SCENARIO_DIR;
#else
  return "scenarios";
#endif
}

std::string scenario_path(const std::string& name) {
  if (name.find('/') != std::string::npos ||
      (name.size() > 4 && name.compare(name.size() - 4, 4, ".ini") == 0)) {
    return name;
  }
  return default_scenario_dir() + "/" + name + ".ini";
}

}  // namespace xl::scenario

#include "api/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "core/dse_engine.hpp"
#include "core/effects.hpp"
#include "serve/serve_types.hpp"

namespace xl::api {

JsonWriter::JsonWriter() {
  out_.push_back('{');
  first_in_scope_.push_back(true);
}

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::comma_and_indent() {
  if (!first_in_scope_.back()) out_ += ",";
  first_in_scope_.back() = false;
  out_ += "\n";
  out_.append(2 * first_in_scope_.size(), ' ');
}

namespace {
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}
}  // namespace

void JsonWriter::field(const std::string& key, const std::string& value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": \"";
  out_ += escape(value);
  out_ += '"';
}

void JsonWriter::field(const std::string& key, const char* value) {
  field(key, std::string(value));
}

void JsonWriter::field(const std::string& key, double value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": ";
  out_ += number(value);
}

void JsonWriter::field(const std::string& key, std::size_t value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": ";
  out_ += std::to_string(value);
}

void JsonWriter::field(const std::string& key, int value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": ";
  out_ += std::to_string(value);
}

void JsonWriter::field(const std::string& key, bool value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += value ? "\": true" : "\": false";
}

void JsonWriter::element(const std::string& value) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
}

void JsonWriter::element(double value) {
  comma_and_indent();
  out_ += number(value);
}

void JsonWriter::begin_object(const std::string& key) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": {";
  first_in_scope_.push_back(true);
}

void JsonWriter::begin_object() {
  comma_and_indent();
  out_ += "{";
  first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += "\n";
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += "}";
}

void JsonWriter::begin_array(const std::string& key) {
  comma_and_indent();
  out_ += '"';
  out_ += escape(key);
  out_ += "\": [";
  first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += "\n";
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += "]";
}

std::string JsonWriter::finish() {
  end_object();
  out_ += "\n";
  return std::move(out_);
}

void write_effect_config(JsonWriter& writer, const core::EffectConfig& effects) {
  writer.begin_object("effects");
  writer.field("summary", effects.summary());
  writer.field("thermal", effects.thermal);
  writer.field("fpv", effects.fpv);
  writer.field("noise", effects.noise);
  writer.field("crosstalk", effects.crosstalk);
  writer.field("seed", static_cast<std::size_t>(effects.seed));
  if (effects.thermal) {
    writer.begin_object("thermal_stage");
    writer.field("pitch_um", effects.thermal_stage.pitch_um);
    writer.field("use_ted", effects.thermal_stage.use_ted);
    writer.field("ambient_drift_nm", effects.thermal_stage.ambient_drift_nm);
    writer.field("ambient_period_us", effects.thermal_stage.ambient_period_us);
    writer.field("dt_us", effects.thermal_stage.dt_us);
    writer.field("tau_us", effects.thermal_stage.rc.tau_us);
    writer.end_object();
  }
  if (effects.fpv) {
    writer.begin_object("fpv_stage");
    writer.field("design",
                 effects.fpv_stage.design == photonics::MrDesignKind::kOptimized
                     ? "optimized"
                     : "conventional");
    writer.field("pitch_um", effects.fpv_stage.pitch_um);
    writer.field("trim_residual_fraction", effects.fpv_stage.trim_residual_fraction);
    writer.end_object();
  }
  if (effects.noise) {
    writer.begin_object("noise_stage");
    writer.field("optical_power_mw", effects.noise_stage.optical_power_mw);
    writer.field("rin_db_per_hz", effects.noise_stage.receiver.rin_db_per_hz);
    writer.field("bandwidth_ghz", effects.noise_stage.receiver.bandwidth_ghz);
    writer.end_object();
  }
  writer.end_object();
}

namespace {

void write_dse_point(JsonWriter& writer, const core::DsePoint& p) {
  writer.begin_object();
  writer.field("N", p.conv_unit_size);
  writer.field("K", p.fc_unit_size);
  writer.field("n", p.conv_units);
  writer.field("m", p.fc_units);
  writer.field("variant", core::variant_name(p.variant));
  writer.field("resolution_bits", p.resolution_bits);
  writer.field("area_budget_mm2", p.area_budget_mm2);
  writer.field("avg_fps", p.avg_fps);
  writer.field("avg_epb_pj_per_bit", p.avg_epb_pj);
  writer.field("avg_power_w", p.avg_power_w);
  writer.field("area_mm2", p.area_mm2);
  writer.field("fps_per_epb", p.fps_per_epb());
  writer.field("on_pareto", p.on_pareto);
  writer.field("degenerate", p.degenerate);
  writer.end_object();
}

}  // namespace

void write_dse_points(JsonWriter& writer, const std::string& key,
                      const std::vector<core::DsePoint>& points) {
  writer.begin_array(key);
  for (const core::DsePoint& p : points) write_dse_point(writer, p);
  writer.end_array();
}

void write_pareto_front(JsonWriter& writer, const core::DseResult& result) {
  write_dse_points(writer, "pareto_front", result.pareto);
}

void write_dse_stats(JsonWriter& writer, const core::DseStats& stats) {
  writer.begin_object("stats");
  writer.field("grid_candidates", stats.grid_candidates);
  writer.field("area_filtered", stats.area_filtered);
  writer.field("evaluations", stats.evaluations);
  writer.field("cache_hits", stats.cache_hits);
  writer.field("cache_hit_rate", stats.cache_hit_rate());
  writer.field("degenerate", stats.degenerate);
  writer.end_object();
}

void write_serving_stats(JsonWriter& writer, const std::string& key,
                         const serve::ServingStats& stats) {
  writer.begin_object(key);
  writer.field("requests", stats.requests);
  writer.field("samples", stats.samples);
  writer.field("batches", stats.batches);
  writer.field("mean_batch_rows", stats.mean_batch_rows());
  writer.field("busy_us", stats.busy_us);
  const auto [p50, p99] = serve::latency_p50_p99_us(stats.latency_us);
  writer.field("latency_p50_us", p50);
  writer.field("latency_p99_us", p99);
  writer.begin_array("batch_rows_histogram");
  for (std::size_t rows = 0; rows < stats.batch_rows_histogram.size(); ++rows) {
    if (stats.batch_rows_histogram[rows] == 0) continue;
    writer.begin_object();
    writer.field("rows", rows);
    writer.field("batches", stats.batch_rows_histogram[rows]);
    writer.end_object();
  }
  writer.end_array();
  writer.begin_object("inference");
  writer.field("photonic_matmuls", stats.inference.photonic_matmuls);
  writer.field("photonic_dot_products", stats.inference.photonic_dot_products);
  writer.field("photonic_macs", stats.inference.photonic_macs);
  writer.field("samples_inferred", stats.inference.samples_inferred);
  writer.field("batches_inferred", stats.inference.batches_inferred);
  writer.end_object();
  writer.end_object();
}

}  // namespace xl::api

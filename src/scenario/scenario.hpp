// Umbrella header of xl::scenario — the declarative workload DSL.
//
// Layering: scenario sits between api and the executables. A scenario file
// (INI dialect with expressions, ${var} substitution, and include
// composition — scenario/ini.hpp) parses into a validated ScenarioSpec
// (scenario/spec.hpp) that lowers onto the existing api::SimConfig /
// DseSweep / ServingOptions types; ScenarioRunner
// (scenario/runner.hpp) executes a spec end to end and emits one
// normalized JSON report. The corpus lives in scenarios/*.ini with golden
// reports under scenarios/golden/.
#pragma once

#include "scenario/expression.hpp"
#include "scenario/ini.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

// Machine-readable run metrics (RTAD_METRICS).
//
// Serializes a completed detection run — result fields, pipeline health,
// trace-frontend and ensemble accounting, per-domain cycle totals,
// per-component cycle accounts, and the simulator stats registry — as a
// stable-key JSON document (schema "rtad.metrics.v2"). Every section is
// always present, so the key set does not depend on the run's protocol,
// ensemble or fault settings.
//
// Determinism contract: the document is byte-identical across scheduler
// kernels and worker counts. Keys are emitted in fixed (insertion/map)
// order, doubles use shortest-round-trip formatting, and the only
// mode-dependent quantities in the system (the "sim.skipped*" scheduler
// counters and their DetectionResult mirrors) are excluded by design.
#pragma once

#include <ostream>

#include "rtad/core/experiment.hpp"

namespace rtad::core {

/// Write the metrics document for one detection cell. `domains` is the
/// simulator's per-clock-domain cycle census (sim::Simulator::domain_cycles)
/// and `stats` its registry, both captured before the SoC is torn down.
void write_metrics_json(
    std::ostream& os, const DetectionResult& result,
    const sim::StatsRegistry& stats,
    const std::vector<std::pair<std::string, sim::Cycle>>& domains);

}  // namespace rtad::core

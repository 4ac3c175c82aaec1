// Per-layer probes of the traced run. Each times one public call of a
// library layer from outside, on the inputs of the workload that runs it;
// no span or timer is placed inside the library.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "campaign/campaign.hpp"
#include "edram/macrocell.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using LayerMetrics = std::map<std::string, double>;

/// Circuit layer on cell (row, col) of `mc` under the default measurement
/// structure, with the library's default solver choice: assemble, factor
/// and solve (circuit.assemble_us / factor_us / solve_us) and one Newton
/// point (circuit.newton_point_us) at states sampled along the flow, and a
/// whole-flow transient (circuit.transient_ms).
void probe_circuit(const ecms::edram::MacroCell& mc, std::size_t row,
                   std::size_t col, double delta_i, LayerMetrics& out);

/// Mean wall time of one BatchEngine::advance segment over a lockstep
/// flow of the first lanes of `tile` (circuit.batch_advance_ms).
void probe_batch(const ecms::edram::MacroCell& tile, double delta_i,
                 LayerMetrics& out);

/// FastModel construction plus code_of_cell over every 4x4 tile of `mc`,
/// per cell (msu.fastmodel_us_per_cell).
void probe_fastmodel(const ecms::edram::MacroCell& mc, LayerMetrics& out);

/// One fresh run_campaign pass of `cfg` in `scratch_dir`, then
/// measure_unit, a store append+commit and write_compact of that pass's
/// store (campaign.measure_unit_ms / commit_us / compact_ms), and the share
/// of the pass its workers did not spend measuring
/// (campaign.supervisor_overhead_frac).
void probe_campaign(ecms::campaign::CampaignConfig cfg,
                    const std::string& scratch_dir, LayerMetrics& out);

/// Ratios from the library's own obs counters, over `cells` transistor-level
/// cells (circuit.steps_per_cell, newton_iters_per_step,
/// lu_numeric_per_cell, lu_symbolic, program_hit_ratio, batch_retire_ratio).
void circuit_counters(const ecms::obs::MetricsSnapshot& snap, double cells,
                      LayerMetrics& out);

/// A counter's value in the snapshot, 0 when it never fired.
double counter(const ecms::obs::MetricsSnapshot& snap, const char* name);

}  // namespace perfbench

// The four benchmark workloads (README.md says why each exists). Each
// builds its inputs from the seed, sets up, runs its timed phase through
// the libraries' public functions, checks the outputs and, in the traced
// run, fills in the per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

Outcome run_array16(const Options& o);
Outcome run_abacus_sweep(const Options& o);
Outcome run_serve_mix(const Options& o);
Outcome run_campaign(const Options& o);

}  // namespace perfbench

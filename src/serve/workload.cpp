#include "serve/workload.hpp"

#include <algorithm>
#include <utility>

#include "tech/tech.hpp"
#include "util/rng.hpp"

namespace ecms::serve {

edram::MacroCell build_array(const ArraySpec& spec) {
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.02;
  cp.gradient_x_rel = spec.gradient;
  cp.lot_offset_rel = spec.drift;
  tech::CapField field(cp, spec.rows, spec.cols, spec.seed);
  Rng rng(spec.seed);
  tech::DefectRates rates;
  rates.short_rate = spec.shorts;
  rates.open_rate = spec.opens;
  rates.partial_rate = spec.partials;
  tech::DefectMap defects =
      tech::DefectMap::random(spec.rows, spec.cols, rates, rng);
  return edram::MacroCell({.rows = spec.rows, .cols = spec.cols},
                          tech::tech018(), std::move(field),
                          std::move(defects));
}

ArraySpec array_spec_of(const ExtractSpec& spec) {
  ArraySpec a;
  a.rows = spec.rows;
  a.cols = spec.cols;
  a.seed = spec.seed;
  a.gradient = spec.gradient;
  a.drift = spec.drift;
  a.shorts = spec.shorts;
  a.opens = spec.opens;
  a.partials = spec.partials;
  return a;
}

extraction::ExtractRequest request_of(const ExtractSpec& spec) {
  extraction::ExtractRequest req;
  req.engine = spec.engine == 1 ? extraction::Engine::kCircuit
                                : extraction::Engine::kFastModel;
  req.tile_rows = spec.tile_rows;
  req.tile_cols = spec.tile_cols;
  req.robust = true;
  req.contain = true;
  req.retry.max_attempts = static_cast<int>(std::max<std::uint32_t>(1, spec.retries));
  req.options.adaptive.enabled = spec.adaptive != 0;
  if (spec.share_programs == 0) {
    req.options.newton.solver.program_cache = nullptr;
  }
  req.batch_width = static_cast<int>(spec.batch);
  return req;
}

}  // namespace ecms::serve

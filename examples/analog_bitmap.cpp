// Analog bitmapping: the paper's headline application.
//
// Fabricates a 32x32 eDRAM array with realistic trouble — a particle cluster
// of opens, a shorted cell, marginal partials, and a process tilt — then:
//   * extracts the analog bitmap (one measurement structure per 4x4 tile),
//   * renders the code heatmap and the signature categorization,
//   * runs the diagnosis engine (isolated defects disambiguated into
//     short / open / under-range, clusters, lines, gradients),
//   * contrasts with the classical digital bitmap from March C-.
//
// Build & run:  ./examples/analog_bitmap
#include <cstdio>
#include <iostream>

#include "bitmap/compare.hpp"
#include "bitmap/diagnosis.hpp"
#include "bitmap/extraction.hpp"
#include "edram/behavioral.hpp"
#include "march/runner.hpp"
#include "report/heatmap.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

int main() {
  using namespace ecms;
  constexpr std::size_t kN = 32;

  // --- fabricate ---
  tech::CapProcessParams cp;
  cp.local_sigma_rel = 0.02;
  cp.gradient_x_rel = 0.12;  // 12% left-to-right process tilt
  tech::CapField field(cp, kN, kN, 2026);
  tech::DefectMap defects(kN, kN);
  defects.inject_cluster(9, 22, 1.4, tech::make_open());
  defects.set(20, 5, tech::make_short());
  defects.set(14, 14, tech::make_partial(0.55));
  defects.set(27, 9, tech::make_partial(0.45));
  const edram::MacroCell mc({.rows = kN, .cols = kN}, tech::tech018(),
                            std::move(field), std::move(defects));

  std::printf("ground truth defects ('.'=none S=short O=open P=partial):\n%s\n",
              report::render_defect_truth(mc.defects()).c_str());

  // --- analog bitmap (plate-segmented measurement) ---
  const bitmap::AnalogBitmap analog = extraction::extract(mc, {}).bitmap;
  std::printf("analog bitmap (code heatmap, dark = low capacitance):\n%s\n",
              report::render_code_heatmap(analog).c_str());

  const bitmap::SignatureMap sig = bitmap::SignatureMap::categorize(analog);
  std::printf(
      "signature map ('0'=under-range l=marginal-low '.'=nominal "
      "h=marginal-high F=over-range):\n%s\n",
      report::render_signature_map(sig).c_str());

  // --- diagnosis ---
  const auto findings = bitmap::diagnose(
      analog, bitmap::make_tiled_disambiguator(mc, {}), std::nullopt);
  std::printf("diagnosis (%zu findings):\n", findings.size());
  for (const auto& f : findings) {
    std::printf("  [%s] %s\n", bitmap::diagnosis_name(f.kind).c_str(),
                f.detail.c_str());
  }

  // --- digital baseline ---
  edram::BehavioralArray array(mc);
  march::EdramMemory mem(array);
  const auto march_res = march::run_march(mem, march::march_c_minus());
  std::printf("\ndigital bitmap (March C-, 'X' = functional fail):\n%s\n",
              report::render_fail_map(march_res.fail_bitmap).c_str());

  const auto rep = bitmap::compare_bitmaps(mc, analog, march_res.fail_bitmap);
  std::printf("hard defects     : %zu | digital sees %zu | analog sees %zu\n",
              rep.truth_defects, rep.defects_seen_digital,
              rep.defects_seen_analog);
  std::printf("marginal cells   : %zu | digital sees %zu | analog sees %zu\n",
              rep.truth_marginal, rep.marginal_seen_digital,
              rep.marginal_seen_analog);
  std::printf(
      "\nthe analog bitmap grades every cell's capacitor; the digital bitmap\n"
      "only knows pass/fail — the marginal cells and the process tilt are\n"
      "invisible to it.\n");
  return 0;
}

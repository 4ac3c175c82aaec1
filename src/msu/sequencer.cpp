#include "msu/sequencer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ecms::msu {

int Schedule::code_of_flip_time(double t) const {
  const int step_at_flip = ramp.ramp_step_at(t - decision_latency);
  return std::clamp(step_at_flip - 1, 0, ramp_steps);
}

Schedule program_measurement(circuit::Circuit& ckt,
                             const edram::ArrayNet& net,
                             const StructureNet& msu,
                             const edram::MacroCell& mc, std::size_t row,
                             std::size_t col, double delta_i,
                             const StructureParams& params,
                             const MeasurementTiming& timing) {
  using circuit::SourceWave;
  using circuit::VSource;
  using circuit::ISource;
  ECMS_REQUIRE(row < mc.rows() && col < mc.cols(), "target cell out of range");
  ECMS_REQUIRE(delta_i > 0.0, "ramp LSB must be positive");
  ECMS_REQUIRE(timing.step > 4.0 * timing.edge, "steps too short for edges");

  const double vdd = mc.tech().vdd;
  const double vpp = mc.tech().vpp;
  const double T = timing.step;
  const double e = timing.edge;

  // Edge staggering within a step boundary. Two hazards are avoided:
  //  * LEC must be fully off before IN (and the bit lines) rise, or charge
  //    leaks into C_REF through the closing switch;
  //  * the bit-line selects are switched off while PRG still drives the
  //    plate, so their gate feedthrough is replenished instead of being
  //    subtracted from the floating measurement charge. (The paper's text
  //    orders PRG first; with that order the select feedthrough costs a
  //    constant few percent of plate charge, which the abacus would simply
  //    calibrate away — we keep the cleaner order.)
  const double t_drive = T + 2 * e;   // IN / other bit lines rise
  const double t_sbl_off = 2 * T;     // other selects open (plate driven)
  const double t_prg_off = 2 * T + 2 * e;  // plate released

  // Word lines: all on for step 1; only the target row stays on afterwards
  // (it keeps the target storage node clamped to its grounded bit line).
  for (std::size_t r = 0; r < mc.rows(); ++r) {
    auto& src = ckt.get<VSource>(net.wl_sources[r]);
    if (r == row) {
      src.set_wave(SourceWave::pwl({{0.0, 0.0}, {e, vpp}}));
    } else {
      src.set_wave(SourceWave::pwl({{0.0, 0.0}, {e, vpp}, {T, vpp}, {T + e, 0.0}}));
    }
  }

  // Bit-line selects: all on for steps 1-2; only the target's stays on for
  // steps 3-5.
  for (std::size_t c = 0; c < mc.cols(); ++c) {
    auto& src = ckt.get<VSource>(net.sbl_sources[c]);
    if (c == col) {
      src.set_wave(SourceWave::pwl({{0.0, 0.0}, {e, vpp}}));
    } else {
      src.set_wave(SourceWave::pwl(
          {{0.0, 0.0}, {e, vpp}, {t_sbl_off, vpp}, {t_sbl_off + e, 0.0}}));
    }
  }

  // Bit-line inputs: all grounded in step 1; in step 2 every bit line except
  // the target's rises to VDD (so only Cm sees a voltage across it).
  for (std::size_t c = 0; c < mc.cols(); ++c) {
    auto& src = ckt.get<VSource>(net.inbl_sources[c]);
    if (c == col) {
      src.set_wave(SourceWave::dc(0.0));
    } else {
      src.set_wave(
          SourceWave::pwl({{0.0, 0.0}, {t_drive, 0.0}, {t_drive + e, vdd}}));
    }
  }

  // IN: grounded in step 1 (discharge path), VDD from step 2 (charge path).
  ckt.get<VSource>(msu.in_source)
      .set_wave(
          SourceWave::pwl({{0.0, 0.0}, {t_drive, 0.0}, {t_drive + e, vdd}}));

  // PRG: on during steps 1-2, off shortly after the selects open.
  ckt.get<VSource>(msu.prg_source)
      .set_wave(SourceWave::pwl(
          {{0.0, 0.0}, {e, vpp}, {t_prg_off, vpp}, {t_prg_off + e, 0.0}}));

  // LEC: on in step 1 (discharge C_REF), fully off before anything rises in
  // step 2 (unselect C_REF while charging), on again from step 4 (sharing).
  ckt.get<VSource>(msu.lec_source)
      .set_wave(SourceWave::pwl({{0.0, 0.0},
                                 {e, vpp},
                                 {T, vpp},
                                 {T + e, 0.0},
                                 {3 * T, 0.0},
                                 {3 * T + e, vpp}}));

  // STD: off for the whole test mode.
  ckt.get<VSource>(msu.std_source).set_wave(SourceWave::dc(0.0));

  // I_REFP: staircase across step 5.
  Schedule s;
  s.ramp_steps = params.ramp_steps;
  s.delta_i = delta_i;
  s.t_discharge_end = T;
  s.t_charge_end = 2 * T;
  s.t_share = 3 * T;
  s.t_ramp_start = 4 * T;
  s.t_end = timing.t_end();
  const double step_duration = T / static_cast<double>(params.ramp_steps);
  ECMS_REQUIRE(timing.ramp_rise < step_duration,
               "ramp riser longer than a staircase step");
  s.ramp = SourceWave::step_ramp(s.t_ramp_start, step_duration, delta_i,
                                 params.ramp_steps, timing.ramp_rise);
  ckt.get<ISource>(msu.irefp_source).set_wave(s.ramp);
  return s;
}

}  // namespace ecms::msu

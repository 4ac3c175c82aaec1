// The five-step measurement flow (Section 2 of the paper), as waveform
// programming of the array/structure control sources.
//
//   step 1 [0,T):   discharge — all word lines on, all bit lines selected and
//                   grounded, LEC on, PRG on with IN = 0; every capacitor
//                   ends grounded on both nodes.
//   step 2 [T,2T):  charge Cm — only the target word line stays on; all bit
//                   lines except the target's are raised to VDD; LEC off;
//                   IN = VDD charges the plate through PRG. PRG turns off at
//                   the end of the step.
//   step 3 [2T,3T): isolate — every bit-line select except the target's
//                   turns off; Cm is the only capacitor still active on the
//                   plate.
//   step 4 [3T,4T): share — LEC turns on; Cm charge-shares with C_REF,
//                   establishing V_GS = f(Cm).
//   step 5 [4T,5T): convert — I_REFP steps through `ramp_steps` equal
//                   current increments; OUT flips when the injected current
//                   exceeds what REF can sink; the step index at the flip is
//                   the digital image of Cm.
//
// T = 10 ns by default, exactly the paper's timing.
#pragma once

#include "circuit/wave.hpp"
#include "edram/netlister.hpp"
#include "msu/structure.hpp"

namespace ecms::msu {

struct MeasurementTiming {
  double step = 10e-9;       ///< duration of each flow step (s)
  double edge = 0.2e-9;      ///< control-signal edge time (s)
  double ramp_rise = 0.05e-9;  ///< current-staircase riser time (s)
  double tail = 1e-9;        ///< settle margin after step 5 (s)

  double t_step(int i) const { return step * static_cast<double>(i); }
  double t_end() const { return 5.0 * step + tail; }
};

/// Everything the interpretation of a run needs to know about the schedule.
struct Schedule {
  /// End of step 1 (T). The contract msu::extract_array relies on to
  /// simulate step 1 once per macro-cell: on [0, t_discharge_end] every
  /// wave program_measurement sets is the same for every target cell, and
  /// t_discharge_end is a stimulus corner of every cell's circuit. Two
  /// measurements of one macro-cell therefore reach a bitwise-identical
  /// state (x and companion history) there, and the first step after it is
  /// backward Euler in both.
  double t_discharge_end = 0.0;
  double t_charge_end = 0.0;  ///< end of step 2 (plate fully charged)
  double t_share = 0.0;       ///< start of step 4
  double t_ramp_start = 0.0;  ///< start of step 5
  double t_end = 0.0;
  double delta_i = 0.0;       ///< ramp LSB (A)
  int ramp_steps = 0;
  /// Comparator decision latency compensated when decoding the flip time:
  /// the sense node slews and the inverters add delay, so OUT rises ~0.3 ns
  /// after the step that actually tripped it (at 0.5 ns/step that is most of
  /// a step). The silicon equivalent is strobing the shift register late.
  double decision_latency = 0.3e-9;
  circuit::SourceWave ramp = circuit::SourceWave::dc(0.0);  ///< programmed I_REFP waveform

  /// Code implied by an OUT rising edge at time t: the staircase step active
  /// at the (latency-compensated) flip minus one — the structure withstood
  /// `code` steps; no flip within the conversion window means full scale.
  int code_of_flip_time(double t) const;
  int code_no_flip() const { return ramp_steps; }
};

/// Programs all array and structure sources for measuring cell (row, col).
/// `delta_i` is the ramp LSB (use FastModel::delta_i() for the designed
/// value). The circuit must contain the sources named in `net` and `msu`.
Schedule program_measurement(circuit::Circuit& ckt,
                             const edram::ArrayNet& net,
                             const StructureNet& msu,
                             const edram::MacroCell& mc, std::size_t row,
                             std::size_t col, double delta_i,
                             const StructureParams& params,
                             const MeasurementTiming& timing = {});

}  // namespace ecms::msu

// Device base class and MNA stamping primitives.
//
// The MNA unknown vector is x = [v(node 1..N-1), i(branch 0..B-1)]: node 0 is
// ground and is eliminated. Devices contribute a linearized companion model
// each Newton iteration: A x = b where A holds conductances/incidences and b
// holds equivalent source currents. Dynamic devices (capacitors, MOSFET
// intrinsic caps) bind their companions into the circuit's CompanionBank,
// which carries the per-step history the solver latches.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "circuit/matrix.hpp"

namespace ecms::circuit {

/// Node handle. 0 is always ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

/// Transient integration method.
enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Everything a device needs to stamp itself at one Newton iteration.
struct StampContext {
  std::span<const double> x;  ///< current iterate (unknown vector)
  double time = 0.0;          ///< time at the end of the step being solved
  double dt = 0.0;            ///< step size; 0 means DC operating point
  Integrator method = Integrator::kTrapezoidal;
  double gmin = 1e-12;  ///< conductance to ground added across nonlinear
                        ///< junctions (raised during gmin stepping)
  double source_scale = 1.0;  ///< independent-source scaling (source stepping)

  bool is_dc() const { return dt == 0.0; }

  /// Voltage of a node in the current iterate (ground reads as 0).
  double v(NodeId n) const {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n) - 1];
  }
};

/// Index of a node's unknown in the MNA system; must not be ground.
inline std::size_t unknown_of(NodeId n) {
  return static_cast<std::size_t>(n) - 1;
}

/// Destination for matrix stamps when the active backend is not the dense
/// Matrix. Implemented by the sparse engine (solver.hpp), which resolves
/// (row, col) coordinates to cached value slots on first assembly and
/// replays them as direct writes afterwards.
class StampSink {
 public:
  virtual ~StampSink() = default;
  /// Adds `v` at (row, col) of the MNA matrix.
  virtual void add(std::size_t row, std::size_t col, double v) = 0;
};

/// Inline replay cursor over a sparse engine's recorded stamp tape. On
/// replayed assemblies the (row, col) sequence each device emits is verified
/// against the recording — the netlist-reconfiguration guard — and values
/// accumulate into pre-resolved slots of the target array, all inlined into
/// the device stamp code with no virtual dispatch. Owned by
/// SparseEngine::assemble; devices never see the difference.
struct ReplayTape {
  const std::uint64_t* coords = nullptr;  ///< recorded (row << 32 | col)
  const std::uint32_t* slots = nullptr;   ///< coords resolved to value slots
  std::size_t size = 0;
  std::size_t cursor = 0;
  double* values = nullptr;  ///< accumulation target (matrix value array)
  bool diverged = false;
};

/// Backend-neutral handle to the MNA matrix passed to Device::stamp: the
/// dense Matrix (one predictable branch of overhead), a StampSink recording
/// a tape on the sparse backend's first assembly, or a ReplayTape on every
/// replayed sparse assembly — the per-iteration hot path. The right-hand
/// side stays a plain span in all cases.
class MnaView {
 public:
  explicit MnaView(Matrix& dense) : dense_(&dense) {}
  explicit MnaView(StampSink& sink) : sink_(&sink) {}
  explicit MnaView(ReplayTape& tape) : tape_(&tape) {}

  void add(std::size_t row, std::size_t col, double v) {
    if (tape_ != nullptr) {
      ReplayTape& t = *tape_;
      if (t.diverged) return;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(row) << 32) | col;
      if (t.cursor >= t.size || t.coords[t.cursor] != key) {
        t.diverged = true;  // reconfigured netlist: caller rediscovers
        return;
      }
      t.values[t.slots[t.cursor]] += v;
      ++t.cursor;
      return;
    }
    if (dense_ != nullptr) {
      dense_->at(row, col) += v;
    } else {
      sink_->add(row, col, v);
    }
  }

  bool is_dense() const { return dense_ != nullptr; }

 private:
  Matrix* dense_ = nullptr;
  StampSink* sink_ = nullptr;
  ReplayTape* tape_ = nullptr;
};

/// Stamps conductance g between nodes a and b.
void stamp_conductance(MnaView& a_mat, NodeId a, NodeId b, double g);

/// Stamps an asymmetric transconductance: current into `out_p` / out of
/// `out_n` proportional to (v(in_p) - v(in_n)) * g.
void stamp_transconductance(MnaView& a_mat, NodeId out_p, NodeId out_n,
                            NodeId in_p, NodeId in_n, double g);

/// Stamps a constant current `i` flowing from node a to node b (leaving a,
/// entering b).
void stamp_current(std::span<double> b_vec, NodeId a, NodeId b, double i);

/// Companion conductance of a linear capacitor C over the step ctx.dt:
/// C/dt under backward Euler, 2C/dt under the trapezoidal rule.
inline double companion_geq(double c, const StampContext& ctx) {
  return ctx.method == Integrator::kBackwardEuler ? c / ctx.dt
                                                  : 2.0 * c / ctx.dt;
}

/// Stamps a capacitor's companion conductance between nodes a, b: a
/// function of (dt, method) only. No-op in DC (capacitor open) and at C = 0.
void stamp_companion(const StampContext& ctx, NodeId a, NodeId b, double c,
                     MnaView& a_mat);

/// Every linear capacitor companion of a circuit (capacitors, MOSFET
/// intrinsic capacitances) as structure-of-arrays in device order:
/// terminals, C, history v_prev = v(a) - v(b) and i_prev, and the
/// conductances g of the last (dt, integrator) seen. The companion is
/// i(a->b) = g·v - j, j = g·v_prev (+ i_prev under the trapezoidal rule).
/// Even const stamp_rhs() refreshes g: stamp a bank from one thread.
class CompanionBank {
 public:
  /// Appends a companion across (a, b); returns its index.
  std::size_t add(NodeId a, NodeId b, double c);

  std::size_t size() const { return c_.size(); }
  NodeId a(std::size_t k) const { return a_[k]; }
  NodeId b(std::size_t k) const { return b_[k]; }
  double capacitance(std::size_t k) const { return c_[k]; }
  double v_prev(std::size_t k) const { return v_[k]; }
  double i_prev(std::size_t k) const { return i_[k]; }

  /// Adds companions [begin, end)'s history sources j to the node-indexed
  /// `b` (b[0]: ground sink), subtracting j at b then adding it at a.
  /// Transient points only; every C in the range must be nonzero.
  void stamp_rhs(const StampContext& ctx, std::size_t begin, std::size_t end,
                 std::span<double> b) const;

  /// Latches v(a) - v(b) of the iterate as history; zeroes the currents.
  void init_state(const StampContext& ctx);
  /// Takes `other`'s latched history. Both banks must hold the same
  /// companions (the same nodes and capacitances, in the same order), as
  /// two circuits built from one netlist do.
  void copy_history(const CompanionBank& other);
  /// Whether `other` holds the same companions as this bank.
  bool same_companions(const CompanionBank& other) const {
    return a_ == other.a_ && b_ == other.b_ && c_ == other.c_;
  }
  /// Latches history after an accepted transient step (a DC context, or
  /// C = 0, latches as init_state does).
  void accept_step(const StampContext& ctx);

 private:
  /// Makes geq_ hold ctx's (dt, integrator) conductances.
  void refresh_geq(const StampContext& ctx) const;

  std::vector<NodeId> a_, b_;
  std::vector<double> c_, v_, i_;
  std::vector<std::size_t> open_;  // companions with C = 0
  // Conductance cache: geq_ holds (geq_dt_, geq_method_)'s values.
  mutable std::vector<double> geq_;
  mutable bool geq_valid_ = false;
  mutable double geq_dt_ = 0.0;
  mutable Integrator geq_method_ = Integrator::kTrapezoidal;
};

/// Abstract circuit element.
///
/// A device's contribution comes in three tiers: stamp_static() (matrix
/// entries that never read the iterate, history or time), the
/// iterate-independent RHS (its capacitor companions' history sources,
/// which the circuit's CompanionBank stamps, or stamp_static_rhs() for
/// source values at ctx.time) and stamp() (everything that reads the
/// iterate; nonlinear devices only). Element values that reach
/// the matrix are fixed at construction (only source waves, which reach the
/// RHS alone, can be replaced) and a Circuit's device list is append-only,
/// so the stamp_static() values are a pure function of the circuit and
/// (ctx.dt, ctx.method, ctx.gmin): the sparse engine keeps that matrix image
/// across points for as long as those repeat, and rebuilds only the RHS per
/// point.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// The static matrix half: entries that depend on ctx.dt, ctx.method,
  /// ctx.gmin and construction-time values only (linear elements, companion
  /// conductances, gmin ties) — never on ctx.x, ctx.time or latched state.
  /// Implementations must emit an iterate-independent *sequence* of matrix
  /// coordinates: the sparse backend records it once and replays it as
  /// direct slot writes.
  virtual void stamp_static(const StampContext& /*ctx*/,
                            MnaView& /*a_mat*/) const {}

  /// The static RHS half outside the companion bank: contributions that
  /// read ctx.time / ctx.source_scale but never ctx.x. Re-stamped every
  /// point (Circuit::stamp_static_rhs) unless bind_companions() banks any.
  virtual void stamp_static_rhs(const StampContext& /*ctx*/,
                                std::span<double> /*b_vec*/) const {}

  /// The iterate-dependent contribution, re-stamped every Newton iteration
  /// of a nonlinear() device (linear devices leave it empty). The
  /// coordinate-sequence rule of stamp_static() applies here too; values
  /// may change freely.
  virtual void stamp(const StampContext& /*ctx*/, MnaView& /*a_mat*/,
                     std::span<double> /*b_vec*/) const {}

  /// Number of extra branch-current unknowns this device introduces.
  virtual int branch_count() const { return 0; }

  /// Called by Circuit::finalize() with the first branch unknown index.
  virtual void set_branch_base(std::size_t /*base*/) {}

  /// Called once by Circuit::finalize(): appends this device's capacitor
  /// companions to the bank, in a fixed (stamp) order.
  /// Contract: a device that banks any has no static RHS term of its own;
  /// finalize() never schedules its stamp_static_rhs().
  virtual void bind_companions(CompanionBank& /*bank*/) {}

  /// True if stamp() depends on the iterate x.
  virtual bool nonlinear() const { return false; }

  /// Appends times where this device's stimulus has corners.
  virtual void collect_breakpoints(std::vector<double>& /*out*/) const {}

  /// Branch or terminal current for probing, where meaningful (positive from
  /// the first terminal into the device). Default: unknown → 0.
  virtual double probe_current(const StampContext& /*ctx*/) const { return 0.0; }

 private:
  std::string name_;
};

}  // namespace ecms::circuit

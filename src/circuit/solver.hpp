// The production linear solver and per-solve workspaces.
//
// newton_solve reduces every (time) point to repeated solves of the stamped
// MNA system. One engine implements that step: sparse.hpp's CSR matrix +
// threshold-Markowitz LU with symbolic reuse, fed by a stamp-slot cache and
// a static/dynamic assembly split (SparseEngine below). matrix.hpp's dense
// LU remains only as a reference (AC analysis, test oracles).
//
// A NewtonWorkspace owns the engine plus the iteration buffers, and lives
// as long as one TransientStepper (every segment of it) or one
// dc_operating_point() call: one workspace per solve means one per thread
// under parallel extraction. Its engine keeps its pivot order for that
// whole life, so a transient paused and continued factors exactly as an
// uninterrupted one. The topology-dependent
// halves of the engine's caches are shared across workspaces through a
// ProgramCache (program.hpp): the per-engine state shrinks to values and
// cursors, and per-solve scratch is carved from the workspace's bump arena
// instead of the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/program.hpp"
#include "circuit/sparse.hpp"
#include "util/arena.hpp"

namespace ecms::circuit {

struct SolverConfig {
  /// Shared topology-program registry; the default is the process-wide
  /// cache, so repeated and parallel solves of the same netlist shape reuse
  /// one symbolic factorization. Set to nullptr to force every engine to
  /// compile privately (A/B accounting, tests).
  ProgramCache* program_cache = &ProgramCache::global();
};

// Named only by perfbench's layer probe; its next revision drops both.
enum class SolverKind { kDense, kSparse };
inline SolverKind resolve_solver_kind(const SolverConfig&, std::size_t) {
  return SolverKind::kSparse;
}

/// Sparse assembly + factorization engine for one circuit and one solve
/// mode. Holds three caches, all established on the first assembly:
///
///   * the frozen CSR pattern of the MNA matrix,
///   * stamp-slot tapes: the (row, col) sequence every device emits,
///     resolved to value-slot indices, so replayed assemblies are direct
///     array writes with no coordinate search, and
///   * a static image in three tiers (Device in device.hpp): the
///     stamp_static() matrix image is kept across points for as long as
///     its key — circuit identity, dt, integrator, ctx.gmin, gmin_ground —
///     repeats; the stamp_static_rhs() vector is rebuilt once per point;
///     and only the nonlinear devices' stamp() bodies re-run per Newton
///     iteration, over a memcpy of that image.
///
/// With a ProgramCache attached, the first assembly hashes the recorded
/// coordinate streams and either adopts a published NetlistProgram
/// (pattern + slots + LU symbolic, skipping the Markowitz analysis
/// entirely) or compiles privately and publishes after the first clean
/// full factorization. Reported as circuit.program.{hits,misses,builds}.
///
/// If a device ever emits a different stamp sequence (e.g. the netlist was
/// reconfigured between solves), the replay detects the divergence via the
/// recorded coordinates and rebuilds every cache from scratch — the same
/// guard that neutralizes a (verified-against anyway) hash collision. A
/// kept matrix image skips that replay, so its key carries the circuit
/// identity (Circuit::id(), fresh after every added device): another
/// circuit, even at a reused address, misses and replays checked. Not
/// thread-safe: workspaces are per-solve and therefore per-thread; the
/// shared program is only ever read.
class SparseEngine final : public StampSink {
 public:
  explicit SparseEngine(std::size_t unknowns, ProgramCache* cache = nullptr,
                        util::Arena* arena = nullptr)
      : n_(unknowns), cache_(cache) {
    b_static_.bind(arena);
    b_work_.bind(arena);
    static_values_.bind(arena);
    lu_.bind_arena(arena);
  }

  /// Marks the start of a new solve point (new time / step / gmin / source
  /// scale): the next assemble() rebuilds the static RHS, and the static
  /// matrix image too unless its key matches the image held.
  void begin_point() { point_dirty_ = true; }

  /// Assembles A and b for the given iterate (discovery or tape replay).
  void assemble(const Circuit& ckt, const StampContext& ctx,
                double gmin_ground);

  /// Factors the assembled matrix: numeric refactorization on the frozen
  /// pattern, with a full Markowitz (re-)factorization on first use (when
  /// no program was adopted) and on pivot degradation. Throws
  /// ecms::SolverError when singular.
  void factor();

  /// Solves into x (overwritten with A^{-1} b; x.size() must equal the
  /// unknown count).
  void solve(std::span<double> x);

  /// Zeroes row r of the assembled matrix (fault-injection hook support);
  /// forces a full factorization so the singular system is detected
  /// deterministically. The result of that forced factorization is never
  /// published to the program cache.
  void zero_row(std::size_t r);

  std::span<const double> rhs() const { return b_work_.span(); }
  const SparseMatrix& matrix() const { return mat_; }
  /// The pivot order this engine actually factors with (adopted or locally
  /// computed; null before the first assemble/factor). The batch engine
  /// compares this against its shared symbolic to decide whether a lane may
  /// ride the shared lane LU or must solve through this engine directly.
  const std::shared_ptr<const LuSymbolic>& lu_symbolic() const {
    return lu_.symbolic();
  }
  /// Whether this engine factors with the pivot order of the program it
  /// adopted or published (not a private or re-pivoted order).
  bool on_published_program() const {
    return program_ != nullptr && lu_.symbolic() == program_->symbolic;
  }

  // Cumulative counters, reported per solve as circuit.lu.{symbolic,
  // numeric} and circuit.assemble.{static_hits,restamps,rhs_restamps}:
  // iterations past a point's first, points that rebuilt the matrix image,
  // and points served from the kept image with a fresh RHS.
  std::uint64_t symbolic_factorizations() const { return symbolic_; }
  std::uint64_t numeric_factorizations() const { return numeric_; }
  std::uint64_t static_hits() const { return static_hits_; }
  std::uint64_t static_restamps() const { return static_restamps_; }
  std::uint64_t rhs_restamps() const { return rhs_restamps_; }

  // StampSink: records a coordinate during discovery, or replays one
  // cached slot write.
  void add(std::size_t row, std::size_t col, double v) override;

 private:
  // Replayed assemblies bypass the virtual sink entirely (ReplayTape in
  // device.hpp); the phase machinery below only guards the record pass.
  enum class Phase { kIdle, kRecord };

  struct Tape {
    std::vector<std::uint64_t> coords;  // packed (row, col), in stamp order
    std::vector<std::uint32_t> slots;   // resolved value slots, same order
    std::vector<double> rec_vals;       // values seen during discovery
  };

  // Everything the static matrix image is a function of, compared
  // bitwise; circuit 0 means no valid image.
  struct ImageKey {
    std::uint64_t circuit = 0, dt = 0, gmin = 0, gmin_ground = 0;
    Integrator method = Integrator::kTrapezoidal;
    bool operator==(const ImageKey&) const = default;
    static ImageKey of(const Circuit& ckt, const StampContext& ctx,
                       double gmin_ground);
  };

  void discover(const Circuit& ckt, const StampContext& ctx,
                double gmin_ground);
  void resolve_slots(Tape& tape);
  /// A replay cursor over the static or dynamic tape into `values`.
  ReplayTape replay(bool dynamic, double* values) const;
  /// This engine's topology and current pivot order as a fresh program.
  std::shared_ptr<NetlistProgram> compile_program() const;
  /// Publishes the locally compiled program after the first clean full
  /// factorization (no-op on the adopted path or with the cache disabled).
  void maybe_publish();

  std::size_t n_ = 0;
  std::size_t nv_ = 0;  // voltage unknowns (gmin ground diagonal span)
  bool pattern_built_ = false;
  bool point_dirty_ = true;
  ImageKey image_key_;
  bool diverged_ = false;
  bool force_full_factor_ = false;
  Phase phase_ = Phase::kIdle;
  Tape static_tape_, dynamic_tape_;
  Tape* active_tape_ = nullptr;
  std::vector<std::uint32_t> diag_slots_;
  SparseMatrix mat_;
  util::ArenaBuf<double> static_values_;  // kept matrix image (nnz values)
  util::ArenaBuf<double> b_static_;  // this point's static rhs, [0] ground
  util::ArenaBuf<double> b_work_;         // working rhs
  SparseLu lu_;
  ProgramCache* cache_ = nullptr;
  std::shared_ptr<const NetlistProgram> program_;
  // The program adopted at discovery: replays read its tapes, one copy for
  // every engine on it (hot across a batch's lanes), not the equal own.
  std::shared_ptr<const NetlistProgram> shared_tapes_;
  std::uint64_t program_key_ = 0;
  bool publish_pending_ = false;
  std::uint64_t symbolic_ = 0, numeric_ = 0;
  std::uint64_t static_hits_ = 0, static_restamps_ = 0, rhs_restamps_ = 0;
};

/// Per-solve scratch owned by the caller of newton_solve: the engine and
/// the iteration buffer are allocated once per transient stepper or DC
/// solve instead of once per Newton iteration, and the flat double buffers
/// are carved from a bump arena that prepare() recycles on every rebind
/// (util.arena.{bytes,resets}). Single-threaded by design — parallel
/// extraction gives each worker its own workspace.
class NewtonWorkspace {
 public:
  NewtonWorkspace() = default;

  /// Binds to a circuit + solver config; re-binding to a different unknown
  /// count or program cache resets the cached state and recycles the arena.
  /// newton_solve calls this itself — explicit calls are allowed but not
  /// required.
  void prepare(const Circuit& ckt, const SolverConfig& cfg);

  /// The bound engine (null before the first prepare()).
  SparseEngine* engine() { return engine_.get(); }
  const SparseEngine* engine() const { return engine_.get(); }
  util::Arena& arena() { return arena_; }

  /// Newton iterate buffer: the solution of the linearized system.
  util::ArenaBuf<double> x_new;

 private:
  util::Arena arena_;
  std::size_t bound_n_ = std::numeric_limits<std::size_t>::max();
  ProgramCache* bound_cache_ = nullptr;
  std::unique_ptr<SparseEngine> engine_;
};

}  // namespace ecms::circuit

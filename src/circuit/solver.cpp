#include "circuit/solver.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ecms::circuit {

void SparseEngine::add(std::size_t row, std::size_t col, double v) {
  // Record pass only: replayed assemblies go through the inline ReplayTape
  // view (device.hpp), never this virtual sink.
  ECMS_REQUIRE(phase_ == Phase::kRecord, "sparse stamp outside assembly");
  Tape& t = *active_tape_;
  t.coords.push_back(pack_coord(row, col));
  t.rec_vals.push_back(v);
}

ReplayTape SparseEngine::replay(bool dynamic, double* values) const {
  const Tape& own = dynamic ? dynamic_tape_ : static_tape_;
  ReplayTape rt;
  rt.coords = own.coords.data();
  rt.slots = own.slots.data();
  if (shared_tapes_ != nullptr) {
    const NetlistProgram& p = *shared_tapes_;
    rt.coords = (dynamic ? p.dynamic_coords : p.static_coords).data();
    rt.slots = (dynamic ? p.dynamic_slots : p.static_slots).data();
  }
  rt.size = own.coords.size();
  rt.values = values;
  return rt;
}

void SparseEngine::resolve_slots(Tape& tape) {
  tape.slots.resize(tape.coords.size());
  for (std::size_t i = 0; i < tape.coords.size(); ++i) {
    const auto r = static_cast<std::size_t>(tape.coords[i] >> 32);
    const auto c = static_cast<std::size_t>(tape.coords[i] & 0xffffffffu);
    tape.slots[i] = mat_.slot(r, c);
  }
}

SparseEngine::ImageKey SparseEngine::ImageKey::of(const Circuit& ckt,
                                                  const StampContext& ctx,
                                                  double gmin_ground) {
  return {ckt.id(), std::bit_cast<std::uint64_t>(ctx.dt),
          std::bit_cast<std::uint64_t>(ctx.gmin),
          std::bit_cast<std::uint64_t>(gmin_ground), ctx.method};
}

void SparseEngine::discover(const Circuit& ckt, const StampContext& ctx,
                            double gmin_ground) {
  MnaView view(static_cast<StampSink&>(*this));

  // Record pass: every device's static half feeds the static tape, the
  // nonlinear devices' stamp() the dynamic one. The RHS needs no tape —
  // devices write the span directly.
  static_tape_ = Tape{};
  dynamic_tape_ = Tape{};
  phase_ = Phase::kRecord;
  active_tape_ = &static_tape_;
  for (const auto& d : ckt.devices()) d->stamp_static(ctx, view);
  b_static_.assign(n_ + 1, 0.0);
  ckt.stamp_static_rhs(ctx, b_static_);
  b_work_.copy_from(b_static_.span().subspan(1));
  active_tape_ = &dynamic_tape_;
  for (const Device* d : ckt.nonlinear_devices()) {
    d->stamp(ctx, view, b_work_);
  }
  phase_ = Phase::kIdle;

  // The recorded coordinate streams are the topology: hash them and try
  // the cache before deriving anything ourselves.
  program_.reset();
  publish_pending_ = false;
  if (cache_ != nullptr) {
    program_key_ =
        program_key(n_, nv_, static_tape_.coords, dynamic_tape_.coords);
    auto prog = cache_->lookup(program_key_);
    if (prog != nullptr && prog->symbolic != nullptr &&
        prog->matches(n_, nv_, static_tape_.coords, dynamic_tape_.coords)) {
      program_ = std::move(prog);
      ECMS_METRIC_COUNT("circuit.program.hits", 1);
    } else {
      // Absent — or a 64-bit collision that matches() rejected, which
      // degrades to a private compilation.
      publish_pending_ = true;
      ECMS_METRIC_COUNT("circuit.program.misses", 1);
    }
  }

  if (program_ != nullptr) {
    // Adopt the shared compilation: pattern, resolved tapes, diagonal
    // slots, and the LU pivot order all come from the program; this engine
    // only ever writes its own value arrays.
    mat_.adopt_pattern(program_->pattern);
    static_tape_.slots = program_->static_slots;
    dynamic_tape_.slots = program_->dynamic_slots;
    diag_slots_ = program_->diag_slots;
    lu_.adopt_symbolic(program_->symbolic);
    shared_tapes_ = program_;
  } else {
    shared_tapes_.reset();
    // Freeze the pattern: every recorded coordinate plus the gmin ground
    // diagonal, then resolve the tapes to value slots.
    std::vector<std::uint64_t> coords;
    coords.reserve(static_tape_.coords.size() + dynamic_tape_.coords.size() +
                   nv_);
    coords.insert(coords.end(), static_tape_.coords.begin(),
                  static_tape_.coords.end());
    coords.insert(coords.end(), dynamic_tape_.coords.begin(),
                  dynamic_tape_.coords.end());
    for (std::size_t i = 0; i < nv_; ++i) coords.push_back(pack_coord(i, i));
    mat_.build_pattern(n_, coords);
    resolve_slots(static_tape_);
    resolve_slots(dynamic_tape_);
    diag_slots_.resize(nv_);
    for (std::size_t i = 0; i < nv_; ++i) diag_slots_[i] = mat_.slot(i, i);
  }

  // Build the static image and this iterate's working values from the
  // recorded stamps (same accumulation order as the replay path).
  static_values_.assign(mat_.nnz(), 0.0);
  for (std::size_t i = 0; i < static_tape_.slots.size(); ++i) {
    static_values_[static_tape_.slots[i]] += static_tape_.rec_vals[i];
  }
  for (const std::uint32_t s : diag_slots_) static_values_[s] += gmin_ground;
  std::span<double> vals = mat_.values();
  std::copy(static_values_.begin(), static_values_.end(), vals.begin());
  for (std::size_t i = 0; i < dynamic_tape_.slots.size(); ++i) {
    vals[dynamic_tape_.slots[i]] += dynamic_tape_.rec_vals[i];
  }
  static_tape_.rec_vals.clear();
  dynamic_tape_.rec_vals.clear();

  pattern_built_ = true;
  point_dirty_ = false;
  diverged_ = false;
  image_key_ = ImageKey::of(ckt, ctx, gmin_ground);
  ++static_restamps_;
}

void SparseEngine::assemble(const Circuit& ckt, const StampContext& ctx,
                            double gmin_ground) {
  ECMS_REQUIRE(ckt.unknown_count() == n_,
               "sparse engine bound to a different circuit size");
  nv_ = ckt.node_count() - 1;
  force_full_factor_ = false;  // a pristine assembly supersedes zero_row()
  if (!pattern_built_) {
    discover(ckt, ctx, gmin_ground);
    return;
  }

  diverged_ = false;

  if (point_dirty_) {
    const ImageKey key = ImageKey::of(ckt, ctx, gmin_ground);
    if (key == image_key_) {
      ++rhs_restamps_;
    } else {
      image_key_ = ImageKey{};  // no valid image until the replay completes
      std::fill(static_values_.begin(), static_values_.end(), 0.0);
      ReplayTape rt = replay(/*dynamic=*/false, static_values_.data());
      MnaView view(rt);
      for (const auto& d : ckt.devices()) d->stamp_static(ctx, view);
      if (rt.diverged || rt.cursor != rt.size) diverged_ = true;
      if (!diverged_) {
        for (const std::uint32_t s : diag_slots_) {
          static_values_[s] += gmin_ground;
        }
        image_key_ = key;
        ++static_restamps_;
      }
    }
    if (!diverged_) {
      b_static_.assign(n_ + 1, 0.0);
      ckt.stamp_static_rhs(ctx, b_static_);
      point_dirty_ = false;
    }
  } else {
    ++static_hits_;
  }

  if (!diverged_) {
    std::span<double> vals = mat_.values();
    std::copy(static_values_.begin(), static_values_.end(), vals.begin());
    b_work_.copy_from(b_static_.span().subspan(1));
    ReplayTape rt = replay(/*dynamic=*/true, vals.data());
    MnaView view(rt);
    for (const Device* d : ckt.nonlinear_devices()) {
      d->stamp(ctx, view, b_work_);
    }
    if (rt.diverged || rt.cursor != rt.size) diverged_ = true;
  }

  if (diverged_) {
    // A device emitted a different stamp sequence than the recorded tape
    // (reconfigured netlist between solves): drop every cache — including
    // the factorization and any adopted program, whose pattern may no
    // longer match — and rediscover (which re-keys against the cache).
    pattern_built_ = false;
    point_dirty_ = true;
    lu_.reset();
    program_.reset();
    publish_pending_ = false;
    discover(ckt, ctx, gmin_ground);
  }
}

std::shared_ptr<NetlistProgram> SparseEngine::compile_program() const {
  auto prog = std::make_shared<NetlistProgram>();
  prog->key = program_key_;
  prog->n = n_;
  prog->nv = nv_;
  prog->static_coords = static_tape_.coords;
  prog->dynamic_coords = dynamic_tape_.coords;
  prog->static_slots = static_tape_.slots;
  prog->dynamic_slots = dynamic_tape_.slots;
  prog->diag_slots = diag_slots_;
  prog->pattern = mat_.pattern();
  prog->symbolic = lu_.symbolic();
  return prog;
}

void SparseEngine::maybe_publish() {
  if (!publish_pending_ || cache_ == nullptr) return;
  publish_pending_ = false;
  // First insert wins: if a racing builder published first, keep using the
  // private compilation this engine already runs on (identical topology).
  program_ = cache_->insert(program_key_, compile_program());
  ECMS_METRIC_COUNT("circuit.program.builds", 1);
}

void SparseEngine::factor() {
  if (force_full_factor_) {
    force_full_factor_ = false;
    // A zeroed-row matrix must never contribute a published pivot order.
    publish_pending_ = false;
    lu_.factor(mat_);  // throws SolverError when singular
    ++symbolic_;
    return;
  }
  if (lu_.has_symbolic() && lu_.refactor(mat_)) {
    ++numeric_;
    return;
  }
  // First use without an adopted program, or pivot degradation: full
  // Markowitz (re-)pivot. A genuinely singular system throws here.
  lu_.factor(mat_);
  ++symbolic_;
  maybe_publish();
}

void SparseEngine::solve(std::span<double> x) {
  ECMS_REQUIRE(x.size() == n_, "sparse solve: x has wrong size");
  std::copy(b_work_.begin(), b_work_.end(), x.begin());
  lu_.solve_in_place(x);
}

void SparseEngine::zero_row(std::size_t r) {
  std::span<double> vals = mat_.values();
  for (std::uint32_t s = mat_.row_begin(r); s < mat_.row_end(r); ++s) {
    vals[s] = 0.0;
  }
  // A numeric refactor could smear the exact zeros into small residuals;
  // force the full factorization so singularity is detected deterministically.
  force_full_factor_ = true;
}

void NewtonWorkspace::prepare(const Circuit& ckt, const SolverConfig& cfg) {
  const std::size_t n = ckt.unknown_count();
  if (engine_ != nullptr && n == bound_n_ &&
      cfg.program_cache == bound_cache_) {
    return;
  }
  bound_n_ = n;
  bound_cache_ = cfg.program_cache;
  // Recycle all arena-backed scratch before re-carving: the engine must go
  // first (its buffers point into the arena being reset).
  engine_.reset();
  arena_.reset();
  x_new.bind(&arena_);
  x_new.resize(n);
  engine_ = std::make_unique<SparseEngine>(n, cfg.program_cache, &arena_);
}

}  // namespace ecms::circuit

// Lane LU microbenchmark (DESIGN.md §14).
//
// Times the three hot phases of the lockstep batch engine — a full
// value-image copy (the "restamp" column: what each lane's engine pays to
// restore its static image; a plain std::copy), the numeric refactorization
// over the frozen pivot order with its pivot check (lu_refactor_lanes), and
// the forward/backward triangular solves (lu_solve_lanes) — on the bare
// transistor-level array netlist (the same system EXT-A9 uses for its
// per-phase split), at lane widths 1/3/4/8/16, against the one-lane
// SparseLu::refactor / solve_in_place of the scalar engine on the same
// system. Numbers are reported *per lane*: the lane payoff is the SparseLu
// row divided by the lanes row at that width.
//
// --json FILE writes the numbers as one flat object (the CI artifact shape
// bench_array_scale uses); --size N picks the macro-cell (default 8).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "circuit/kernels.hpp"
#include "circuit/netlist.hpp"
#include "circuit/sparse.hpp"
#include "circuit/solver.hpp"
#include "edram/netlister.hpp"
#include "tech/tech.hpp"
#include "util/fileio.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {
using namespace ecms;

/// Flat key/value JSON sink, same shape as bench_array_scale's artifact.
class JsonSink {
 public:
  void add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    fields_.emplace_back(key, buf);
  }
  void add(const std::string& key, long long v) {
    fields_.emplace_back(key, std::to_string(v));
  }

  bool write(const std::string& path) const {
    std::string j = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      j += "  \"" + fields_[i].first + "\": " + fields_[i].second +
           (i + 1 < fields_.size() ? ",\n" : "\n");
    }
    j += "}\n";
    try {
      util::atomic_write_file(path, j);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The shared system every lane solves: the bare n x n array netlist,
/// assembled and factored once through the scalar SparseEngine so the
/// symbolic factorization (pattern + frozen pivot order) and a
/// representative value/RHS image exist.
struct System {
  circuit::Circuit ckt;
  std::size_t unknowns = 0;
  circuit::SparseMatrix mat;   ///< assembled matrix (one lane)
  std::vector<double> a_vals;  ///< mat's values
  std::vector<double> rhs;     ///< assembled RHS (one lane)
  std::shared_ptr<const circuit::LuSymbolic> sym;
};

System build_system(std::size_t n) {
  System s;
  const auto mc = edram::MacroCell::uniform({.rows = n, .cols = n},
                                            tech::tech018(), 30_fF);
  edram::build_array(s.ckt, mc);
  s.ckt.finalize();
  s.unknowns = s.ckt.unknown_count();
  std::vector<double> x(s.unknowns, 0.0);
  circuit::StampContext ctx;
  ctx.x = x;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  circuit::SparseEngine eng(s.unknowns);
  eng.begin_point();
  eng.assemble(s.ckt, ctx, 1e-12);  // discovery
  eng.factor();                     // symbolic + numeric
  s.mat = eng.matrix();
  s.a_vals.assign(s.mat.values().begin(), s.mat.values().end());
  s.rhs.assign(eng.rhs().begin(), eng.rhs().end());
  s.sym = eng.lu_symbolic();
  return s;
}

template <typename Fn>
double time_us_per_rep(int reps, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  return 1e6 *
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

struct PhaseTimes {
  double restamp_us = 0.0;  ///< per lane
  double refactor_us = 0.0;
  double solve_us = 0.0;
};

constexpr int kReps = 400;

/// Times the lane LU at one width on the shared system, per-lane cost.
/// Every lane carries the same values — the elimination is oblivious to
/// lane content and this bench prices instructions, not convergence.
PhaseTimes run_lanes(const System& s, std::size_t width) {
  const circuit::LuSymbolic& sy = *s.sym;
  const std::size_t n = s.unknowns;
  const std::size_t nnz = s.a_vals.size();
  std::vector<double> a(nnz * width), static_img(nnz * width),
      lu_vals(sy.factor_nnz() * width), pb(n * width), pb_src(n * width);
  std::vector<const double*> a_lanes(width);
  std::vector<long> bad(width);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t k = 0; k < nnz; ++k) {
      static_img[l * nnz + k] = s.a_vals[k];
    }
    a_lanes[l] = a.data() + l * nnz;
    for (std::size_t i = 0; i < n; ++i) {
      pb_src[i * width + l] = s.rhs[sy.perm_row[i]];
    }
  }

  PhaseTimes t;
  t.restamp_us = time_us_per_rep(kReps, [&] {
    std::copy(static_img.begin(), static_img.end(), a.begin());
    benchmark::DoNotOptimize(a.data());
  });
  t.refactor_us = time_us_per_rep(kReps, [&] {
    circuit::lu_refactor_lanes(sy, a_lanes.data(), lu_vals.data(), bad.data(),
                               width);
    benchmark::DoNotOptimize(lu_vals.data());
  });
  // The solve works in place, so each rep reloads the permuted RHS; the
  // reload is priced separately and subtracted.
  const double reload_us = time_us_per_rep(kReps, [&] {
    std::copy(pb_src.begin(), pb_src.end(), pb.begin());
    benchmark::DoNotOptimize(pb.data());
  });
  const double pair_us = time_us_per_rep(kReps, [&] {
    std::copy(pb_src.begin(), pb_src.end(), pb.begin());
    circuit::lu_solve_lanes(sy, lu_vals.data(), pb.data(), width);
    benchmark::DoNotOptimize(pb.data());
  });
  const double w = static_cast<double>(width);
  t.solve_us = std::max(0.0, pair_us - reload_us) / w;
  t.restamp_us /= w;
  t.refactor_us /= w;
  return t;
}

/// The same three phases through one scalar SparseLu, the engine's own
/// per-cell path.
PhaseTimes run_sparse_lu(const System& s) {
  circuit::SparseMatrix m = s.mat;
  circuit::SparseLu lu;
  lu.adopt_symbolic(s.sym);
  std::vector<double> b(s.unknowns);

  PhaseTimes t;
  t.restamp_us = time_us_per_rep(kReps, [&] {
    std::copy(s.a_vals.begin(), s.a_vals.end(), m.values().begin());
    benchmark::DoNotOptimize(m.values().data());
  });
  t.refactor_us = time_us_per_rep(kReps, [&] {
    benchmark::DoNotOptimize(lu.refactor(m));
  });
  const double reload_us = time_us_per_rep(kReps, [&] {
    std::copy(s.rhs.begin(), s.rhs.end(), b.begin());
    benchmark::DoNotOptimize(b.data());
  });
  const double pair_us = time_us_per_rep(kReps, [&] {
    std::copy(s.rhs.begin(), s.rhs.end(), b.begin());
    lu.solve_in_place(b);
    benchmark::DoNotOptimize(b.data());
  });
  t.solve_us = std::max(0.0, pair_us - reload_us);
  return t;
}

void run_bench(std::size_t n, const std::string& json_path) {
  const System s = build_system(n);
  std::printf("lane LU on the bare %zux%zu array netlist "
              "(%zu unknowns, %zu nnz)\n\n",
              n, n, s.unknowns, s.a_vals.size());

  JsonSink json;
  json.add("batch_unknowns", static_cast<long long>(s.unknowns));
  json.add("batch_preferred_width",
           static_cast<long long>(circuit::kernels::preferred_width()));

  Table table({"width", "path", "restamp (us/lane)", "refactor (us/lane)",
               "solve (us/lane)"});
  const PhaseTimes one = run_sparse_lu(s);
  table.add_row({"1", "SparseLu", Table::num(one.restamp_us, 3),
                 Table::num(one.refactor_us, 3), Table::num(one.solve_us, 3)});
  json.add("sparse_lu_restamp_us", one.restamp_us);
  json.add("sparse_lu_refactor_us", one.refactor_us);
  json.add("sparse_lu_solve_us", one.solve_us);
  for (std::size_t width : {1u, 3u, 4u, 8u, 16u}) {
    const PhaseTimes v = run_lanes(s, width);
    const std::string w = std::to_string(width);
    table.add_row({w, "lanes", Table::num(v.restamp_us, 3),
                   Table::num(v.refactor_us, 3), Table::num(v.solve_us, 3)});
    json.add("batch_restamp_us_w" + w, v.restamp_us);
    json.add("batch_refactor_us_w" + w, v.refactor_us);
    json.add("batch_solve_us_w" + w, v.solve_us);
  }
  std::cout << table << '\n';

  if (!json_path.empty()) {
    if (json.write(json_path)) {
      std::printf("lane LU numbers written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t size = 8;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 2 && v <= 64) size = static_cast<std::size_t>(v);
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  run_bench(size, json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

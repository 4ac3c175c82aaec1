// Batched SoA kernel microbenchmark (DESIGN.md §14).
//
// Times the three hot phases of the lockstep batch engine — a full SoA
// value-image copy (the "restamp" column: what a lane's gather pays after its
// static image is rebuilt; a plain std::copy on both backends), the numeric
// refactorization over the frozen pivot order, and the forward/backward
// triangular solves — on the bare transistor-level
// array netlist (the same system EXT-A9 uses for its per-phase split), at
// lane widths 1/4/8/16, on both the runtime-dispatched backend and the
// forced-scalar fallback. Numbers are reported *per lane*: the vector payoff
// is the scalar column divided by the dispatched column at the same width.
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
  void add_str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + v + "\"");
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
  std::vector<double> a_vals;  ///< assembled matrix values (one lane)
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
  s.a_vals.assign(eng.matrix().values().begin(), eng.matrix().values().end());
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

/// Times one backend at one width on the shared system, per-lane cost.
/// Every lane carries the same values — the kernels are oblivious to lane
/// content and this bench prices instructions, not convergence.
PhaseTimes run_width(const System& s, const circuit::kernels::Kernels& kk,
                     std::size_t width) {
  const circuit::LuSymbolic& sy = *s.sym;
  const std::size_t n = s.unknowns;
  const std::size_t nnz = s.a_vals.size();
  std::vector<double> a(nnz * width), static_img(nnz * width),
      l_vals(sy.l_cols.size() * width), u_vals(sy.u_cols.size() * width),
      work(n * width), pb(n * width), pb_src(n * width);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t k = 0; k < nnz; ++k) {
      static_img[k * width + l] = s.a_vals[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
      pb_src[i * width + l] = s.rhs[sy.perm_row[i]];
    }
  }

  constexpr int kReps = 400;
  PhaseTimes t;
  t.restamp_us = time_us_per_rep(kReps, [&] {
    std::copy(static_img.begin(), static_img.end(), a.begin());
    benchmark::DoNotOptimize(a.data());
  });
  t.refactor_us = time_us_per_rep(kReps, [&] {
    kk.refactor(sy, a.data(), l_vals.data(), u_vals.data(), work.data(),
                width);
    benchmark::DoNotOptimize(u_vals.data());
  });
  // solve() works in place, so each rep reloads the permuted RHS; the
  // reload is priced separately and subtracted.
  const double reload_us = time_us_per_rep(kReps, [&] {
    std::copy(pb_src.begin(), pb_src.end(), pb.begin());
    benchmark::DoNotOptimize(pb.data());
  });
  const double pair_us = time_us_per_rep(kReps, [&] {
    std::copy(pb_src.begin(), pb_src.end(), pb.begin());
    kk.solve(sy, l_vals.data(), u_vals.data(), pb.data(), width);
    benchmark::DoNotOptimize(pb.data());
  });
  const double w = static_cast<double>(width);
  t.solve_us = std::max(0.0, pair_us - reload_us) / w;
  t.restamp_us /= w;
  t.refactor_us /= w;
  return t;
}

void run_bench(std::size_t n, const std::string& json_path) {
  const System s = build_system(n);
  std::printf("batched SoA kernels on the bare %zux%zu array netlist "
              "(%zu unknowns, %zu nnz)\n",
              n, n, s.unknowns, s.a_vals.size());
  std::printf("dispatch: %s\n\n", circuit::kernels::isa_summary());

  JsonSink json;
  json.add_str("batch_isa", circuit::kernels::active().name);
  json.add("batch_unknowns", static_cast<long long>(s.unknowns));
  json.add("batch_preferred_width",
           static_cast<long long>(circuit::kernels::preferred_width()));

  Table table({"width", "backend", "restamp (us/lane)", "refactor (us/lane)",
               "solve (us/lane)"});
  for (std::size_t width : {1u, 4u, 8u, 16u}) {
    circuit::kernels::set_force_scalar(false);
    const PhaseTimes v = run_width(s, circuit::kernels::active(), width);
    circuit::kernels::set_force_scalar(true);
    const PhaseTimes sc = run_width(s, circuit::kernels::active(), width);
    circuit::kernels::set_force_scalar(false);

    const std::string w = std::to_string(width);
    table.add_row({w, circuit::kernels::vector_available() ? "vector"
                                                           : "scalar",
                   Table::num(v.restamp_us, 3), Table::num(v.refactor_us, 3),
                   Table::num(v.solve_us, 3)});
    table.add_row({w, "scalar", Table::num(sc.restamp_us, 3),
                   Table::num(sc.refactor_us, 3), Table::num(sc.solve_us, 3)});
    json.add("batch_restamp_us_w" + w, v.restamp_us);
    json.add("batch_refactor_us_w" + w, v.refactor_us);
    json.add("batch_solve_us_w" + w, v.solve_us);
    json.add("batch_scalar_restamp_us_w" + w, sc.restamp_us);
    json.add("batch_scalar_refactor_us_w" + w, sc.refactor_us);
    json.add("batch_scalar_solve_us_w" + w, sc.solve_us);
  }
  std::cout << table << '\n';

  if (!json_path.empty()) {
    if (json.write(json_path)) {
      std::printf("kernel numbers written to %s\n", json_path.c_str());
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

// ProgramCache contracts: content-hash keying, hit/miss/insert accounting,
// first-insert-wins publication, collision safety via the matches() guard,
// cross-thread sharing of one compiled program, and — the paper-level
// guarantee — extraction codes that do not depend on whether programs are
// shared or compiled privately.
#include "circuit/program.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/newton.hpp"
#include "circuit/solver.hpp"
#include "edram/macrocell.hpp"
#include "msu/extract.hpp"
#include "tech/tech.hpp"
#include "util/units.hpp"

namespace ecms::circuit {
namespace {

SolverConfig sparse_with(ProgramCache* cache) {
  SolverConfig cfg;
  cfg.program_cache = cache;
  return cfg;
}

// The solver-backend workhorse: linear ladder for the static image, a
// MOSFET switch so the dynamic tape replays every iteration.
Circuit make_switched_ladder(const tech::Technology& t, int stages) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, kGround, SourceWave::dc(t.vdd));
  c.add_vsource("VG", c.node("gate"), kGround,
                SourceWave::pwl({{0.0, 0.0}, {2e-9, t.vdd}}));
  c.add_mosfet("MSW", c.node("n0"), c.node("gate"), vdd, vdd,
               t.pmos_min(2e-6));
  for (int i = 0; i < stages; ++i) {
    const std::string a = "n" + std::to_string(i);
    const std::string b = "n" + std::to_string(i + 1);
    c.add_resistor("R" + std::to_string(i), c.node(a), c.node(b), 10_kOhm);
    c.add_capacitor("C" + std::to_string(i), c.node(b), kGround, 50_fF);
  }
  return c;
}

// Same ladder, same node and source count (same n and nv), but one extra
// cross resistor: structurally distinct streams at equal sizes.
Circuit make_crossed_ladder(const tech::Technology& t, int stages) {
  Circuit c = make_switched_ladder(t, stages);
  c.add_resistor("RX", c.node("n1"), c.node("n" + std::to_string(stages)),
                 47_kOhm);
  return c;
}

// Runs `points` uniform transient Newton points against one workspace and
// returns the accumulated (symbolic, numeric) factorization counts.
std::pair<int, int> run_points(Circuit& c, const NewtonOptions& opts,
                               NewtonWorkspace& ws, int points,
                               std::vector<double>* x_out = nullptr) {
  std::vector<double> x(c.unknown_count(), 0.0);
  int symbolic = 0, numeric = 0;
  for (int p = 0; p < points; ++p) {
    StampContext ctx;
    ctx.time = 1e-9 * (p + 1);
    ctx.dt = 1e-9;
    const auto res = newton_solve(c, ctx, x, opts, ws);
    EXPECT_TRUE(res.converged) << "point " << p;
    symbolic += res.symbolic_factorizations;
    numeric += res.numeric_factorizations;
  }
  if (x_out != nullptr) *x_out = x;
  return {symbolic, numeric};
}

TEST(ProgramCacheT, KeyIsStableAndShapeSensitive) {
  const std::vector<std::uint64_t> s{1, 2, 3};
  const std::vector<std::uint64_t> d{9, 8};
  const auto k = program_key(5, 4, s, d);
  EXPECT_EQ(k, program_key(5, 4, s, d));  // pure function of the shape
  EXPECT_NE(k, program_key(6, 4, s, d));
  EXPECT_NE(k, program_key(5, 3, s, d));
  EXPECT_NE(k, program_key(5, 4, d, s));  // stream roles are not symmetric
  std::vector<std::uint64_t> s2 = s;
  s2[1] ^= 1;
  EXPECT_NE(k, program_key(5, 4, s2, d));
}

TEST(ProgramCacheT, LookupInsertAndFirstInsertWins) {
  ProgramCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(42), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto a = std::make_shared<NetlistProgram>();
  a->key = 42;
  a->n = 3;
  auto b = std::make_shared<NetlistProgram>();
  b->key = 42;
  b->n = 4;

  EXPECT_EQ(cache.insert(42, a).get(), a.get());
  EXPECT_EQ(cache.insert(42, b).get(), a.get());  // first insert wins
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.lookup(42).get(), a.get());
  EXPECT_EQ(cache.hits(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_NE(a, nullptr);  // holders keep their program alive past clear()
}

TEST(ProgramCacheT, SecondWorkspaceAdoptsThePublishedProgram) {
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  ProgramCache cache;
  NewtonOptions opts;
  opts.solver = sparse_with(&cache);

  NewtonWorkspace ws1;
  const auto [sym1, num1] = run_points(c, opts, ws1, 3);
  EXPECT_EQ(sym1, 1);  // builder pays the one Markowitz analysis
  EXPECT_GE(num1, 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);

  NewtonWorkspace ws2;
  const auto [sym2, num2] = run_points(c, opts, ws2, 3);
  EXPECT_EQ(sym2, 0);  // adopter goes straight to numeric refactors
  EXPECT_GE(num2, 3);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(ProgramCacheT, DistinctTopologiesAtEqualSizesGetDistinctPrograms) {
  const auto t = tech::tech018();
  Circuit plain = make_switched_ladder(t, 6);
  Circuit crossed = make_crossed_ladder(t, 6);
  plain.finalize();
  crossed.finalize();
  // Same system sizes — only the coordinate streams differ.
  ASSERT_EQ(plain.unknown_count(), crossed.unknown_count());

  ProgramCache cache;
  NewtonOptions opts;
  opts.solver = sparse_with(&cache);
  NewtonWorkspace ws1, ws2;
  const auto [sym_p, num_p] = run_points(plain, opts, ws1, 2);
  const auto [sym_x, num_x] = run_points(crossed, opts, ws2, 2);
  EXPECT_EQ(sym_p, 1);
  EXPECT_EQ(sym_x, 1);  // no false sharing: the crossed ladder re-compiles
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.inserts(), 2u);
  const auto ents = cache.entries();
  ASSERT_EQ(ents.size(), 2u);
  EXPECT_NE(ents[0].first, ents[1].first);
}

TEST(ProgramCacheT, HashCollisionDegradesToPrivateCompileNotWrongAnswer) {
  const auto t = tech::tech018();
  Circuit c = make_switched_ladder(t, 6);
  c.finalize();
  NewtonOptions opts;

  // Reference: solve without any cache.
  opts.solver = sparse_with(nullptr);
  NewtonWorkspace ws_ref;
  std::vector<double> x_ref;
  run_points(c, opts, ws_ref, 3, &x_ref);

  // Publish the real program, then forge a copy with one mutated
  // coordinate and plant it under the *original* key in a fresh cache —
  // exactly what a 64-bit hash collision would look like to the engine.
  ProgramCache donor;
  opts.solver = sparse_with(&donor);
  NewtonWorkspace ws_donor;
  run_points(c, opts, ws_donor, 1);
  const auto ents = donor.entries();
  ASSERT_EQ(ents.size(), 1u);
  auto forged = std::make_shared<NetlistProgram>(*ents[0].second);
  ASSERT_FALSE(forged->static_coords.empty());
  forged->static_coords[0] ^= 1;

  ProgramCache trap;
  trap.insert(ents[0].first, forged);

  opts.solver = sparse_with(&trap);
  NewtonWorkspace ws;
  std::vector<double> x;
  const auto [symbolic, numeric] = run_points(c, opts, ws, 3, &x);
  // The matches() guard must reject the forged program: the engine
  // compiles privately (one symbolic analysis) and the answer is exactly
  // the no-cache one.
  EXPECT_EQ(symbolic, 1);
  EXPECT_GE(numeric, 2);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], x_ref[i]) << "unknown " << i;
  }
  // First insert wins: the trap entry stays, the private build is not
  // force-published over it.
  EXPECT_EQ(trap.size(), 1u);
  EXPECT_EQ(trap.lookup(ents[0].first).get(), forged.get());
}

TEST(ProgramCacheT, OneProgramIsSharedAcrossThreads) {
  const auto t = tech::tech018();
  constexpr int kThreads = 4;
  ProgramCache cache;
  std::vector<std::thread> pool;
  std::vector<int> symbolic(kThreads, -1);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      // Per-thread circuit and workspace (the solver's ownership rule);
      // only the cache is shared.
      Circuit c = make_switched_ladder(t, 6);
      c.finalize();
      NewtonOptions opts;
      opts.solver = sparse_with(&cache);
      NewtonWorkspace ws;
      const auto [sym, num] = run_points(c, opts, ws, 4);
      symbolic[i] = sym;
    });
  }
  for (auto& th : pool) th.join();

  // Exactly one program exists; racing builders may each have paid a
  // private analysis (first insert wins), but nobody got a wrong one and
  // late starters adopted without any.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.inserts(), 1u);
  int total_symbolic = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_GE(symbolic[i], 0) << "thread " << i << " did not finish";
    EXPECT_LE(symbolic[i], 1) << "thread " << i;
    total_symbolic += symbolic[i];
  }
  EXPECT_GE(total_symbolic, 1);
}

TEST(ProgramCacheT, ExtractionCodesIdenticalCacheOnVsOff) {
  const auto mc = edram::MacroCell::uniform({.rows = 2, .cols = 2},
                                            tech::tech018(), 30_fF);
  ProgramCache fresh;
  auto measure = [&](ProgramCache* cache, std::size_t r, std::size_t col) {
    msu::ExtractOptions opts;
    opts.record_trace = false;
    opts.newton.solver = sparse_with(cache);
    return msu::extract_cell(mc, r, col, {}, {}, opts);
  };
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t col = 0; col < 2; ++col) {
      const auto shared = measure(&fresh, r, col);
      const auto privately = measure(nullptr, r, col);
      EXPECT_EQ(shared.code, privately.code) << "cell " << r << "," << col;
      ASSERT_EQ(shared.t_out_rise.has_value(),
                privately.t_out_rise.has_value());
      if (shared.t_out_rise) {
        // Bit-identical, not just close: the shared pivot order must be
        // the one a private compile derives.
        EXPECT_EQ(*shared.t_out_rise, *privately.t_out_rise)
            << "cell " << r << "," << col;
      }
    }
  }
  EXPECT_GE(fresh.size(), 1u);
}

std::shared_ptr<NetlistProgram> dummy_program(std::uint64_t key) {
  auto p = std::make_shared<NetlistProgram>();
  p->key = key;
  return p;
}

TEST(ProgramCacheT, CapacityBoundsTheMapAndEvictsLeastRecentlyUsed) {
  ProgramCache cache(3);
  EXPECT_EQ(cache.capacity(), 3u);
  for (std::uint64_t k = 1; k <= 3; ++k) cache.insert(k, dummy_program(k));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Refresh 1 and 3; 2 is now the coldest entry and must be the victim.
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  cache.insert(4, dummy_program(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(4), nullptr);
}

TEST(ProgramCacheT, EvictionForgetsButNeverInvalidates) {
  ProgramCache cache(1);
  const auto held = dummy_program(7);
  cache.insert(7, held);
  cache.insert(8, dummy_program(8));  // evicts 7
  EXPECT_EQ(cache.lookup(7), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  // The engine-side shared_ptr still owns the evicted program.
  EXPECT_EQ(held->key, 7u);
  EXPECT_EQ(held.use_count(), 1);
}

TEST(ProgramCacheT, SetCapacityShrinkEvictsImmediately) {
  ProgramCache cache;  // default cap
  for (std::uint64_t k = 1; k <= 8; ++k) cache.insert(k, dummy_program(k));
  EXPECT_EQ(cache.size(), 8u);
  // Warm the high keys so the low ones are the LRU victims.
  for (std::uint64_t k = 5; k <= 8; ++k) EXPECT_NE(cache.lookup(k), nullptr);
  cache.set_capacity(4);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 4u);
  for (std::uint64_t k = 5; k <= 8; ++k) EXPECT_NE(cache.lookup(k), nullptr);
  for (std::uint64_t k = 1; k <= 4; ++k) EXPECT_EQ(cache.lookup(k), nullptr);
}

TEST(ProgramCacheT, ZeroCapacityClampsToOne) {
  ProgramCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(1, dummy_program(1));
  cache.insert(2, dummy_program(2));
  EXPECT_EQ(cache.size(), 1u);
  cache.set_capacity(0);
  EXPECT_EQ(cache.capacity(), 1u);
}

}  // namespace
}  // namespace ecms::circuit

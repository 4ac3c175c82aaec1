#!/usr/bin/env python3
"""Checks the shape of the committed BENCH_*.json records.

Usage: python3 tools/check_bench_records.py FRESH_SOLVER_JSON

Run from the repository root. The committed records hold host-dependent
measurements, so only their key sets are checked:

  * BENCH_hotpath.json: the scalar transient step's cost split and its
    perfbench A/B;
  * BENCH_fastmodel.json and BENCH_serve_fast.json: bench_fastmodel's
    splits and every perfbench A/B pair of the fast-model request path;
  * BENCH_solver.json: the reference schema of the EXT-A9 artifact, whose
    key set must equal that of FRESH_SOLVER_JSON, the file
    `bench_array_scale --solver-json` just wrote;
  * BENCH_trajectory.json: one entry per perfbench A/B of a change
    against its parent, each with its metric summaries and every pair.

Exits non-zero with a message naming the first mismatch.
"""
import json
import sys

METRICS = {'items_per_s', 'cpu_ms_per_item', 'op_p50_ms', 'setup_s',
           'peak_rss_mb'}
FIELDS = {'parent_median', 'parent_iqr', 'change_median', 'change_iqr',
          'pairs_won'}


def load(path):
    with open(path) as f:
        return json.load(f)


def check_hotpath():
    rec = load('BENCH_hotpath.json')
    need = {'host', 'baseline', 'change', 'cycles_per_step', 'perfbench'}
    missing = need - set(rec)
    if missing:
        raise SystemExit('BENCH_hotpath.json missing %s' % sorted(missing))
    layers = {'mosfet_eval_and_replay', 'lu_refactor', 'static_rhs',
              'companion_accept', 'triangular_solve', 'damped_update',
              'total'}
    for side in ('before', 'after'):
        got = set(rec['cycles_per_step'][side])
        if got != layers:
            raise SystemExit('cycles_per_step.%s keys %s, want %s'
                             % (side, sorted(got), sorted(layers)))
    for wl in ('array16', 'abacus-sweep', 'serve-mix'):
        got = rec['perfbench'][wl]
        if set(got) - {'pairs', 'seconds'} != METRICS:
            raise SystemExit('perfbench.%s metrics %s' % (wl, sorted(got)))
        for m in METRICS:
            if set(got[m]) != FIELDS:
                raise SystemExit('perfbench.%s.%s fields %s'
                                 % (wl, m, sorted(got[m])))
    print('hot-path record schema OK')


def check_pairs_record(path, splits, label):
    """A microbench before/after split plus summarized and listed pairs."""
    rec = load(path)
    need = {'host', 'baseline', 'change', 'microbench', 'perfbench',
            'perfbench_seed99', 'pairs'}
    missing = need - set(rec)
    if missing:
        raise SystemExit('%s missing %s' % (path, sorted(missing)))
    for side in ('before_ms', 'after_ms'):
        got = set(rec['microbench'][side])
        if got != splits:
            raise SystemExit('microbench.%s keys %s, want %s'
                             % (side, sorted(got), sorted(splits)))
    for series in ('perfbench', 'perfbench_seed99'):
        for wl, got in rec[series].items():
            if set(got) - {'seed', 'pairs', 'seconds'} != METRICS:
                raise SystemExit('%s.%s metrics %s'
                                 % (series, wl, sorted(got)))
            for m in METRICS:
                if set(got[m]) != FIELDS:
                    raise SystemExit('%s.%s.%s fields %s'
                                     % (series, wl, m, sorted(got[m])))
            listed = [p for p in rec['pairs']
                      if p['workload'] == wl and p['seed'] == got['seed']]
            if len(listed) != got['pairs']:
                raise SystemExit('%s.%s: %d pairs listed, %d summarized'
                                 % (series, wl, len(listed), got['pairs']))
    for p in rec['pairs']:
        if not {'workload', 'seed', 'first', 'parent', 'change'} <= set(p):
            raise SystemExit('pair record keys %s' % sorted(p))
        for side in ('parent', 'change'):
            if set(p[side]) != METRICS | {'correct'}:
                raise SystemExit('pair %s keys %s' % (side, sorted(p[side])))
    print('%s record schema OK' % label)


def check_trajectory():
    rec = load('BENCH_trajectory.json')
    if set(rec) != {'schema', 'entries'} or not rec['entries']:
        raise SystemExit('BENCH_trajectory.json keys %s' % sorted(rec))
    need = {'commit', 'parent', 'host', 'method', 'workload', 'seed',
            'pairs', 'seconds', 'metrics', 'runs'}
    for i, e in enumerate(rec['entries']):
        where = 'entries[%d]' % i
        if set(e) != need:
            raise SystemExit('%s keys %s, want %s'
                             % (where, sorted(e), sorted(need)))
        if set(e['metrics']) != METRICS:
            raise SystemExit('%s metrics %s' % (where, sorted(e['metrics'])))
        for m in METRICS:
            if set(e['metrics'][m]) != FIELDS:
                raise SystemExit('%s.%s fields %s'
                                 % (where, m, sorted(e['metrics'][m])))
            if not 0 <= e['metrics'][m]['pairs_won'] <= e['pairs']:
                raise SystemExit('%s.%s pairs_won out of range' % (where, m))
        if len(e['runs']) != e['pairs']:
            raise SystemExit('%s: %d runs listed, %d pairs'
                             % (where, len(e['runs']), e['pairs']))
        for p in e['runs']:
            if set(p) != {'first', 'parent', 'change'}:
                raise SystemExit('%s run keys %s' % (where, sorted(p)))
            for side in ('parent', 'change'):
                if set(p[side]) != METRICS | {'correct'}:
                    raise SystemExit('%s run %s keys %s'
                                     % (where, side, sorted(p[side])))
    print('trajectory record schema OK (%d entries)' % len(rec['entries']))


def check_solver(fresh_path):
    fresh = set(load(fresh_path))
    baseline = set(load('BENCH_solver.json'))
    missing, extra = baseline - fresh, fresh - baseline
    if missing or extra:
        raise SystemExit('solver-json schema drift: missing=%s extra=%s'
                         % (sorted(missing), sorted(extra)))
    print('solver-json schema OK (%d keys)' % len(fresh))


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__.strip().splitlines()[2])
    fast_splits = {'Extract64Tiled', 'TileAndModel64', 'PlateOffset64',
                   'RefCurrent4096', 'Ctor64Untiled', 'Extract64Untiled'}
    check_hotpath()
    check_pairs_record('BENCH_fastmodel.json', fast_splits, 'fast-model')
    check_pairs_record('BENCH_serve_fast.json',
                       fast_splits | {'BuildArray64', 'ServeFast64'},
                       'serve-fast')
    check_trajectory()
    check_solver(argv[1])


if __name__ == '__main__':
    main(sys.argv)

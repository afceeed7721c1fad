#!/usr/bin/env python3
"""Repeat a workload over several seeds, and compare two result sets.

    python3 perfbench/repeat.py run --workload NAME --seeds 1-10 --seconds S
                                    [--trace 0|1] [--out FILE]
    python3 perfbench/repeat.py compare BASE.json NEW.json

`run` calls perfbench/run.py once per seed (from the repository root),
prints each metric's median, quartiles and spread ((q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them) beside the metric's bound from
BENCHMARK.json, and saves the set (default .bench_out/repeat-NAME.json).

`compare` prints, per metric, both medians, the change in the metric's
worse direction as a share of the base median, and whether it stays within
the bound; it also compares the failed share of the two sets. When one set
is traced and the other not, the traced run's trace.* figures are compared
with the untraced end-to-end ones: that difference is the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout


def spec():
    path = os.path.join(os.getcwd(), 'BENCHMARK.json')
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        b = json.load(f)
    return {m['name']: m for m in b.get('end_to_end', []) + b.get('per_layer', [])}


def seeds(text):
    out = []
    for part in text.split(','):
        if '-' in part:
            lo, hi = part.split('-')
            out += range(int(lo), int(hi) + 1)
        else:
            out.append(int(part))
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float('inf')


def cmd_run(args):
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, 'run.py'), '--workload', args.workload,
               '--seed', str(seed), '--seconds', str(args.seconds), '--trace', str(args.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print('seed %d: exit %d\n%s' % (seed, p.returncode, p.stderr[-2000:]), file=sys.stderr)
            return 1
        r = json.loads(lines[-1])
        r['seed'] = seed
        runs.append(r)
        print('seed %d: correct=%s attempted=%d failed=%d' % (seed, r['correct'], r['attempted'],
                                                               r['failed']), flush=True)
        for line in p.stderr.splitlines():
            if line.startswith('CHECK FAILED'):
                print('  ' + line, flush=True)
    out = args.out or os.path.join('.bench_out', 'repeat-%s%s.json'
                                   % (args.workload, '-trace' if args.trace else ''))
    os.makedirs(os.path.dirname(out) or '.', exist_ok=True)
    with open(out, 'w') as f:
        json.dump(dict(workload=args.workload, trace=args.trace, seconds=args.seconds, runs=runs),
                  f, indent=1)
    report(runs)
    print('saved %s' % out)
    return 0


def report(runs):
    bounds = spec()
    names = sorted(runs[0]['metrics'])
    print('%-40s %12s %12s %12s %8s %7s' % ('metric', 'median', 'q1', 'q3', 'spread', 'bound'))
    for name in names:
        med, q1, q3, spread = summary([r['metrics'][name]['value'] for r in runs])
        bound = bounds.get(name, {}).get('bound')
        flag = ''
        if bound is not None:
            flag = 'ok' if spread <= bound / 3 else ('WIDE' if spread <= bound else 'OVER')
        print('%-40s %12.5g %12.5g %12.5g %8.4f %7s %s'
              % (name, med, q1, q3, spread, '' if bound is None else bound, flag))
    shares = {r['failed'] / r['attempted'] for r in runs}
    print('failed share: %s; all correct: %s' % (sorted(shares), all(r['correct'] for r in runs)))


def cmd_compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    bounds = spec()

    def medians(s):
        out = {}
        for name in s['runs'][0]['metrics']:
            key = name[len('trace.'):] if s['trace'] and name.startswith('trace.') else name
            out[key] = statistics.median(r['metrics'][name]['value'] for r in s['runs'])
        return out

    mb, mn = medians(base), medians(new)
    print('%-40s %12s %12s %9s %7s' % ('metric', 'base', 'new', 'worse', 'bound'))
    worst = 0
    for name in sorted(set(mb) & set(mn)):
        m = bounds.get(name, {})
        sign = -1 if m.get('better') == 'higher' else 1
        worse = sign * (mn[name] - mb[name]) / mb[name] if mb[name] else 0.0
        bound = m.get('bound')
        verdict = '' if bound is None else ('ok' if worse <= bound else 'WORSE')
        worst |= verdict == 'WORSE'
        print('%-40s %12.5g %12.5g %+9.4f %7s %s' % (name, mb[name], mn[name], worse,
                                                     '' if bound is None else bound, verdict))
    share = lambda s: sorted({r['failed'] / r['attempted'] for r in s['runs']})
    print('failed share: base %s, new %s' % (share(base), share(new)))
    return 1 if worst or share(base) != share(new) else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest='cmd', required=True)
    r = sub.add_parser('run')
    r.add_argument('--workload', required=True)
    r.add_argument('--seeds', default='1-10')
    r.add_argument('--seconds', type=int, default=None)
    r.add_argument('--trace', type=int, default=0)
    r.add_argument('--out')
    c = sub.add_parser('compare')
    c.add_argument('base')
    c.add_argument('new')
    args = ap.parse_args()
    if args.cmd == 'run':
        if args.seconds is None:
            with open('BENCHMARK.json') as f:
                args.seconds = json.load(f)['run_seconds']
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == '__main__':
    sys.exit(main())

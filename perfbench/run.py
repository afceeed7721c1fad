#!/usr/bin/env python3
"""End-to-end benchmark for the Leopard repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (perfbench/,
into $CARGO_TARGET_DIR or .bench_build), runs one workload, checks the
program's outputs, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. Untraced runs report the
end-to-end metrics, traced runs the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import checks  # noqa: E402
import procs  # noqa: E402
import wire  # noqa: E402

# The sim's shape (n=256, alpha=4000, tau=300, 128-B payloads, 100 kreq/s)
# is fixed in src/pb_sim.cpp.
WORKLOADS = {
    'wire-128': dict(kind='wire', payload=128, rate=150000),
    'sim-n256': dict(kind='sim'),
}
SIM_SHAPE = (256, 4000, 128)  # n, alpha, payload, for pb_micro

# Per-layer metrics every traced run prints; a layer the workload bypasses
# reads 0.
SIM_PARTS = ('datablock', 'ready', 'bftblock', 'vote', 'proof', 'checkpoint', 'client_request')
PER_LAYER = {
    'net.frames_per_req': 'count', 'net.writev_per_req': 'count', 'net.bytes_per_req': 'B',
    'net.payload_copies_per_req': 'count', 'net.leader_bytes_sent_per_req': 'B',
    'net.leader_bytes_recv_per_req': 'B', 'net.replica_bytes_recv_per_req': 'B',
    'net.send_queue_bytes_max': 'B', 'net.frames_shed': 'count', 'net.decode_errors': 'count',
    'net.reconnects': 'count',
    'proc.leader_cpu_us_per_req': 'us', 'proc.replica_cpu_us_per_req': 'us',
    'proc.gen_cpu_frac': 'ratio',
    'core.generation_p50_ms': 'ms', 'core.dissemination_p50_ms': 'ms',
    'core.agreement_p50_ms': 'ms', 'core.generation_mean_ms': 'ms',
    'core.dissemination_mean_ms': 'ms', 'core.agreement_mean_ms': 'ms',
    'core.client_gap_mean_ms': 'ms', 'core.reqs_per_datablock': 'count',
    'core.datablocks_per_bftblock': 'count', 'core.view_changes': 'count',
    'core.datablocks_recovered': 'count',
    'store.wal_append_p50_us': 'us', 'store.wal_append_us_per_req': 'us',
    'store.wal_fsync_p50_us': 'us', 'store.wal_bytes_per_req': 'B',
    'erasure.encode_p50_us': 'us', 'erasure.encode_MBps': 'MB/s',
    'crypto.datablock_digest_us': 'us', 'crypto.combine_us': 'us',
    'crypto.verify_share_us': 'us', 'proto.datablock_encode_us': 'us',
    'proto.datablock_decode_us': 'us',
    'sim.scaling_factor': 'ratio', 'sim.leader_cpu_busy_frac': 'ratio',
    'sim.replica_cpu_busy_frac': 'ratio',
    'sim.leader_bytes_per_req.send': 'B', 'sim.leader_bytes_per_req.recv': 'B',
    'sim.replica_bytes_per_req.send': 'B', 'sim.replica_bytes_per_req.recv': 'B',
    'sim.events_per_s': '1/s', 'sim.engine_self_s': 's', 'sim.core_wall_s': 's',
    'gen.late_p99_ms': 'ms',
    'trace.commit_p50_ms': 'ms', 'trace.cpu_us_per_req': 'us',
}
PER_LAYER.update({'sim.leader_cpu_ms_per_kreq.%s' % p: 'ms' for p in SIM_PARTS})


class Fail(Exception):
    """A benchmark that cannot run: exit non-zero without a result."""


def build(root):
    if not (os.path.isdir(os.path.join(root, 'src'))
            and os.path.isfile(os.path.join(root, 'tools', 'leopard_node.cpp'))):
        raise Fail('the repository sources (src/, tools/leopard_node.cpp) are missing')
    bindir = os.path.join(root, os.environ.get('CARGO_TARGET_DIR') or '.bench_build')
    log = os.path.join(root, '.bench_out', 'build.log')
    os.makedirs(os.path.dirname(log), exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, 'w') as out:
        steps = []
        if not os.path.isfile(os.path.join(bindir, 'CMakeCache.txt')):
            steps.append(['cmake', '-S', HERE, '-B', bindir, '-DCMAKE_BUILD_TYPE=Release'])
        steps.append(['cmake', '--build', bindir, '-j', jobs])
        for cmd in steps:
            p = procs.spawn(cmd, stdout=out, stderr=subprocess.STDOUT)
            if p.wait() != 0:
                raise Fail('build failed; see %s' % log)
    return bindir


def run_micro(bindir, n, alpha, payload, seed, store_dir=None):
    """Times public functions at one workload's shapes; with `store_dir`,
    also the WAL's fsync, which the wire cluster runs without."""
    cmd = [os.path.join(bindir, 'pb_micro'), '--n', str(n), '--alpha', str(alpha),
           '--payload', str(payload), '--seed', str(seed)]
    if store_dir:
        os.makedirs(store_dir)
        cmd += ['--store-dir', store_dir]
    p = procs.spawn(cmd, stdout=subprocess.PIPE, text=True)
    out, _ = p.communicate(timeout=60)
    if p.returncode != 0:
        raise Fail('pb_micro exited with %d' % p.returncode)
    m = json.loads(out.strip().splitlines()[-1])
    layers = {
        'erasure.encode_p50_us': m['erasure_encode_us'],
        'erasure.encode_MBps': m['erasure_encode_MBps'],
        'crypto.datablock_digest_us': m['datablock_digest_us'],
        'crypto.combine_us': m['combine_us'],
        'crypto.verify_share_us': m['verify_share_us'],
        'proto.datablock_encode_us': m['datablock_encode_us'],
        'proto.datablock_decode_us': m['datablock_decode_us'],
    }
    if store_dir:
        layers['store.wal_fsync_p50_us'] = m['wal_fsync_us']
    return layers


def run_sim(bindir, seed, trace):
    """One simulated run over a fixed window of simulated time (see
    src/pb_sim.cpp). Throughput is committed requests over the simulated
    time of the last commit, so it does not depend on where the window
    ends."""
    cmd = [os.path.join(bindir, 'pb_sim'), '--seed', str(seed), '--trace', '1' if trace else '0']
    p = procs.spawn(cmd, stdout=subprocess.PIPE, text=True)
    out, _ = p.communicate()
    if p.returncode != 0:
        raise Fail('pb_sim exited with %d' % p.returncode)
    r = json.loads(out.strip().splitlines()[-1])
    errors = checks.check_sim(r)
    committed = max(r['committed'], 1)
    e2e = {
        'setup_s': (r['setup_s'], 's'),
        'commit_p50_ms': (r['sim_commit_p50_s'] * 1e3, 'ms'),
        'commit_p99_ms': (r['sim_commit_p99_s'] * 1e3, 'ms'),
        'cpu_us_per_req': (r['commit_cpu_s'] * 1e6 / committed, 'us'),
        'kreq_s': (r['sim_kreq_s'], 'kreq/s'),
        'peak_rss_mib': (r['peak_rss_mib'], 'MiB'),
    }
    if r['committed'] == 0:
        errors.append('nothing committed in the measurement window')
    elif r['stalled']:
        print('perfbench: the simulated cluster stopped committing after %d BFTblocks, at %.1f s'
              % (r['bftblocks'], r['last_commit_s']), file=sys.stderr)
    layers = {}
    if trace:
        layers = {
            'sim.scaling_factor': r['scaling_factor'],
            'sim.leader_cpu_busy_frac': r['leader_cpu_busy_frac'],
            'sim.replica_cpu_busy_frac': r['replica_cpu_busy_frac'],
            'sim.leader_bytes_per_req.send': r['leader_bytes_per_req']['send'],
            'sim.leader_bytes_per_req.recv': r['leader_bytes_per_req']['recv'],
            'sim.replica_bytes_per_req.send': r['replica_bytes_per_req']['send'],
            'sim.replica_bytes_per_req.recv': r['replica_bytes_per_req']['recv'],
            'sim.events_per_s': r['events_per_s'],
            'sim.engine_self_s': r['engine_self_s'],
            'sim.core_wall_s': r['core_wall_s'],
        }
        for part in SIM_PARTS:
            layers['sim.leader_cpu_ms_per_kreq.' + part] = r['leader_cpu_ms_per_kreq'][part]
    info = dict(injected=r['injected'], queued=r['queued'], committed=r['committed'],
                bftblocks=r['bftblocks'], last_commit_s=r['last_commit_s'],
                window_s=r['window_s'], run_wall_s=r['run_wall_s'])
    return r['injected'], r['failed'], errors, e2e, layers, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=int, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    w = dict(WORKLOADS[args.workload], name=args.workload)
    trace = args.trace == 1

    def on_signal(signum, _frame):
        raise Fail('interrupted by signal %d' % signum)

    def on_alarm(_signum, _frame):
        raise Fail('time limit reached')

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_alarm)

    rundir = os.path.join(root, '.bench_out', 'run-%s-%d-%d' % (args.workload, os.getpid(),
                                                                 int(time.time() * 1e3)))
    try:
        bindir = build(root)
        signal.alarm(170)  # every run ends within 180 s once built
        os.makedirs(rundir)
        if w['kind'] == 'wire':
            w['fixed_s'] = max(1.0, args.seconds - 1.0)  # after pb_gen's 1-s warm-up
            attempted, failed, errors, e2e, layers, info = wire.run(
                bindir, rundir, os.path.join(root, '.bench_out', 'spans'), w, args.seed, trace)
            micro_shape = (4, 100, w['payload'])
            store_dir = os.path.join(rundir, 'store')
        else:
            attempted, failed, errors, e2e, layers, info = run_sim(bindir, args.seed, trace)
            micro_shape = SIM_SHAPE
            store_dir = None
        if trace:
            layers.update(run_micro(bindir, *micro_shape, args.seed, store_dir))
            layers['trace.commit_p50_ms'] = e2e['commit_p50_ms'][0]
            layers['trace.cpu_us_per_req'] = e2e['cpu_us_per_req'][0]
            metrics = {k: {'value': float(layers.get(k, 0.0)), 'unit': u}
                       for k, u in sorted(PER_LAYER.items())}
        else:
            metrics = {k: {'value': float(v), 'unit': u} for k, (v, u) in e2e.items()}
        signal.alarm(0)
    except Fail as e:
        print('perfbench: %s' % e, file=sys.stderr)
        return 1
    except Exception as e:  # a failed step of the run itself
        print('perfbench: %s: %s' % (type(e).__name__, e), file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        procs.reap_all()
        shutil.rmtree(rundir, ignore_errors=True)

    for err in errors:
        print('CHECK FAILED: %s' % err, file=sys.stderr)
    print(json.dumps(dict(info=info), sort_keys=True), file=sys.stderr)
    print(json.dumps({'correct': not errors, 'attempted': int(attempted), 'failed': int(failed),
                      'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())

"""Wire workloads: a 4-replica leopard_node cluster on loopback TCP, driven
by the benchmark's open-loop generator (src/pb_gen.cpp).

Everything is observed from outside the program: /healthz, /statusz and
/metrics on each replica, the SIGTERM report, and /proc.
"""

import json
import os
import queue
import socket
import statistics
import subprocess
import threading
import time
import urllib.request

import checks
import procs
import promtext

N = 4
LEADER = 1  # the view-1 leader (Manifest::initial_leader)
# Each replica keeps its WAL in its own data directory, without fsync. With
# --fsync interval the single-threaded event loop waited on the host's disk
# every 50 ms, and five seeds read p99 from 8.6 to 57 ms as the disk's other
# load came and went. Traced runs time the fsync through ReplicaStore
# (pb_micro). The WAL is never trimmed: a run writes about 1.8 GB.
FSYNC = 'none'
# Traced runs keep a span for 1 request in 64 (the node's default). With
# every request traced, 2 of 6 traced runs ended with whole datablocks
# executed on every replica but never acked (see CHANGES.md).
TRACE_SAMPLE = 64


def pinned(cpu):
    """preexec_fn that pins a child, and every thread it starts, to one CPU.
    Fixed placement keeps runs from differing by which processes the
    scheduler happens to stack on one core: unpinned, 3 of 10 wire-128 runs
    read 25% higher p99 and 12% more CPU per request."""
    return lambda: os.sched_setaffinity(0, {cpu})


def free_ports(count):
    """Distinct ports the kernel reports free right now. All sockets stay
    bound until every port is picked, so the set has no repeats; the kernel
    rotates ephemeral ports, so back-to-back runs get different ones."""
    socks = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.bind(('127.0.0.1', 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def http_get(port, path, timeout=2.0):
    with urllib.request.urlopen('http://127.0.0.1:%d%s' % (port, path), timeout=timeout) as r:
        return r.read().decode()


def proc_cpu_s(pid):
    """CPU seconds of one process: the on-CPU nanoseconds of each of its
    live threads (/proc/<pid>/task/*/schedstat). /proc/<pid>/stat counts
    in clock ticks, and at 10 ms a tick the 1-s intervals of a lightly
    loaded replica read several percent apart by rounding alone."""
    total = 0
    task_dir = '/proc/%d/task' % pid
    for tid in os.listdir(task_dir):
        try:
            with open('%s/%s/schedstat' % (task_dir, tid)) as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread ended between listdir and open
            pass
    return total / 1e9


def proc_hwm_mib(pid):
    with open('/proc/%d/status' % pid) as f:
        for line in f:
            if line.startswith('VmHWM:'):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Cluster:
    """Spawns and observes the replicas and the generator."""

    def __init__(self, bindir, rundir, workload, seed, trace):
        self.bindir = bindir
        self.rundir = rundir
        self.w = workload
        self.seed = seed
        self.trace = trace
        ports = free_ports(2 * N)
        self.peer_ports = ports[:N]
        self.http_ports = ports[N:]
        cpus = sorted(os.sched_getaffinity(0))
        # Replica i on CPU i; the generator beside the leader, which makes
        # no datablocks and is the least busy replica.
        self.cpu_of = [cpus[i % len(cpus)] for i in range(N)]
        self.gen_cpu = cpus[LEADER % len(cpus)]
        self.replicas = []
        self.gen = None
        self.lines = queue.Queue()

    # -- set-up ----------------------------------------------------------------
    def write_manifest(self):
        path = os.path.join(self.rundir, 'cluster.conf')
        with open(path, 'w') as f:
            f.write('protocol leopard\nn %d\nseed 7\npayload_size %d\n'
                    'datablock_requests 100\nbftblock_links 8\n'
                    'datablock_max_wait_ms 20\nproposal_max_wait_ms 10\n'
                    'view_timeout_ms 60000\nbatch_size 100\n'
                    % (N, self.w['payload']))
            for i, p in enumerate(self.peer_ports):
                f.write('node %d 127.0.0.1:%d\n' % (i, p))
        return path

    def start(self):
        """Starts the replicas in id order, each once the previous one answers
        /healthz (its peer listener is bound by then, so every dial of a
        lower id succeeds at once instead of waiting out a reconnect
        backoff), then the generator. Returns the set-up time: from the
        first spawn until every replica is linked to every peer and the
        generator is connected to all of them."""
        manifest = self.write_manifest()
        t0 = time.monotonic()
        for i in range(N):
            out = open(os.path.join(self.rundir, 'replica%d.out' % i), 'w')
            data = os.path.join(self.rundir, 'data%d' % i)
            os.makedirs(data)
            cmd = [os.path.join(self.bindir, 'leopard_node'), '--manifest', manifest,
                   '--id', str(i), '--metrics-addr', '127.0.0.1:%d' % self.http_ports[i],
                   '--data-dir', data, '--fsync', FSYNC,
                   '--trace-sample', str(TRACE_SAMPLE) if self.trace else '0']
            self.replicas.append(procs.spawn(cmd, stdout=out, stderr=subprocess.STDOUT,
                                             preexec_fn=pinned(self.cpu_of[i])))
            out.close()
            self.wait_ready([i], meshed=False)
        self.wait_ready(range(N), meshed=True)
        self.start_generator(manifest)
        line = self.next_line(30)
        if line != 'READY':
            raise RuntimeError('generator did not connect (%r)' % line)
        return time.monotonic() - t0

    def wait_ready(self, ids, meshed, limit=20.0):
        """Replicas `ids` answer /healthz (and, if `meshed`, are linked to
        every peer)."""
        deadline = time.monotonic() + limit
        pending = set(ids)
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError('replicas %s not ready' % sorted(pending))
            for i in list(pending):
                if self.replicas[i].poll() is not None:
                    raise RuntimeError('replica %d exited during start-up' % i)
                try:
                    if not meshed:
                        http_get(self.http_ports[i], '/healthz', 0.5)
                        pending.discard(i)
                        continue
                    peers = json.loads(http_get(self.http_ports[i], '/statusz', 0.5))['peers']
                except OSError:
                    continue
                if len(peers) >= N - 1 and all(p['connected'] for p in peers):
                    pending.discard(i)
            time.sleep(0.002)

    def start_generator(self, manifest):
        w = self.w
        args = [os.path.join(self.bindir, 'pb_gen'), '--manifest', manifest,
                '--out', os.path.join(self.rundir, 'gen.json'),
                '--payload', str(w['payload']),
                '--seed', str(self.seed), '--rate', str(w['rate']),
                '--fixed-s', str(w['fixed_s'])]
        if self.trace:
            args += ['--spans', os.path.join(self.rundir, 'gen.records')]
        self.gen = procs.spawn(args, stdout=subprocess.PIPE, stderr=None, text=True,
                               preexec_fn=pinned(self.gen_cpu))

        def reader():
            for line in self.gen.stdout:
                self.lines.put(line.strip())
            self.lines.put(None)
        threading.Thread(target=reader, daemon=True).start()

    def next_line(self, timeout):
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return None

    # -- observation -----------------------------------------------------------
    def scrape(self, path='/metrics'):
        return [http_get(p, path, 5.0) for p in self.http_ports]

    def metrics(self):
        return [promtext.parse(t) for t in self.scrape()]

    def statusz(self, traces=False):
        return [json.loads(t) for t in self.scrape('/statusz?traces=1' if traces else '/statusz')]

    def executed(self, i):
        return json.loads(http_get(self.http_ports[i], '/statusz', 5.0))['executed_requests']

    def cpu(self):
        return [proc_cpu_s(p.pid) for p in self.replicas], proc_cpu_s(self.gen.pid)

    def check_alive(self):
        for i, p in enumerate(self.replicas):
            if p.poll() is not None:
                raise RuntimeError('replica %d exited (code %s)' % (i, p.returncode))

    # -- shutdown --------------------------------------------------------------
    def settle(self, acked, limit=10.0):
        """Waits until every replica has executed at least the `acked`
        requests and all report the same, unchanging stream position."""
        deadline = time.monotonic() + limit
        last = None
        while time.monotonic() < deadline:
            marks = [(s['executed_through'], s['executed_requests']) for s in self.statusz()]
            if len(set(marks)) == 1 and marks == last and marks[0][1] >= acked:
                return
            last = marks
            time.sleep(0.1)

    def stop_replicas(self):
        reports = []
        for p in self.replicas:
            p.terminate()
        for i, p in enumerate(self.replicas):
            p.wait(timeout=20)
            with open(os.path.join(self.rundir, 'replica%d.out' % i)) as f:
                reports.append(checks.parse_report(f.read()))
        return reports


def _window_quantiles(before, after, name, labels):
    count, total, cum = promtext.hist_window(before, after, name, labels)
    mean = total / count if count else 0.0
    return promtext.quantile(cum, 0.5), mean, count


def run(bindir, rundir, spandir, workload, seed, trace):
    """One wire run. Returns (attempted, failed, errors, end_to_end, per_layer)."""
    c = Cluster(bindir, rundir, workload, seed, trace)
    setup_s = c.start()

    marks = {}
    periodic = []
    span_rings = []
    cpu_samples = []  # (cpu per replica, requests executed at replica 0), 1 s apart
    next_sample = None
    next_scrape = time.monotonic()
    while True:
        due = [t for t in (next_sample, next_scrape if trace else None) if t is not None]
        line = c.next_line(max(0.0, min(due) - time.monotonic()) if due else 1.0)
        if line is None and c.gen.poll() is not None:
            break
        if line in ('FIXED_BEGIN', 'FIXED_END'):
            cpu, gen_cpu = c.cpu()
            marks[line] = dict(t=time.monotonic(), cpu=cpu, gen_cpu=gen_cpu,
                               metrics=c.metrics(), status=c.statusz())
            cpu_samples.append((cpu, marks[line]['status'][0]['executed_requests']))
            next_sample = marks[line]['t'] + 1.0 if line == 'FIXED_BEGIN' else None
            if line == 'FIXED_END':
                marks[line]['rss'] = max(proc_hwm_mib(p.pid) for p in c.replicas)
        elif line == 'DONE':
            break
        elif line is None:
            c.check_alive()
        if next_sample is not None and time.monotonic() >= next_sample:
            cpu_samples.append((c.cpu()[0], c.executed(0)))
            next_sample += 1.0
        if trace and time.monotonic() >= next_scrape:
            # Fixed-cadence sampling: /metrics, /statusz with the span ring,
            # and /proc, every 0.5 s.
            periodic.append(c.metrics())
            span_rings.append(c.statusz(traces=True))
            next_scrape += 0.5
    if c.gen.wait(timeout=30) != 0:
        raise RuntimeError('generator exited with %d' % c.gen.returncode)
    if 'FIXED_END' not in marks:
        raise RuntimeError('generator never finished its fixed-rate phase')
    with open(os.path.join(rundir, 'gen.json')) as f:
        gen = json.load(f)

    c.settle(gen['exactly_once'])
    if trace:
        span_rings.append(c.statusz(traces=True))
    final_metrics = c.metrics()
    reports = c.stop_replicas()

    errors = []
    errors += checks.check_acks(gen)
    errors += checks.check_digests(reports)
    errors += checks.check_executed(reports, gen['exactly_once'])
    errors += checks.check_safety(
        [promtext.total(m, 'leopard_safety_violation') for m in final_metrics])

    b, e = marks['FIXED_BEGIN'], marks['FIXED_END']
    window_s = e['t'] - b['t']
    committed = (e['status'][0]['executed_requests'] - b['status'][0]['executed_requests'])
    if committed <= 0:
        errors.append('nothing committed in the fixed-rate window')
        committed = 1
    # CPU per committed request: the median over the window's 1-s intervals,
    # so a passing disturbance (a writeback burst, a neighbour) moves it
    # less than a single ratio over the whole window.
    per_interval = [sum(c1) - sum(c0) for (c0, _), (c1, _) in zip(cpu_samples, cpu_samples[1:])]
    done = [x1 - x0 for (_, x0), (_, x1) in zip(cpu_samples, cpu_samples[1:])]
    ratios = [cpu_s * 1e6 / n for cpu_s, n in zip(per_interval, done) if n > 0]
    e2e = {
        'setup_s': (setup_s, 's'),
        'commit_p50_ms': (gen['commit_p50_ms'], 'ms'),
        'commit_p99_ms': (gen['commit_p99_ms'], 'ms'),
        'cpu_us_per_req': (statistics.median(ratios) if ratios else 0.0, 'us'),
        'kreq_s': (committed / window_s / 1e3, 'kreq/s'),
        'peak_rss_mib': (marks['FIXED_END']['rss'], 'MiB'),
    }
    info = dict(sent=gen['sent'], fixed_requests=gen['fixed_requests'],
                committed_in_window=committed, window_s=window_s, late_p99_ms=gen['late_p99_ms'])
    layers = {}
    if trace:
        layers, joined, span_errors = per_layer(c, gen, marks, periodic, span_rings,
                                                final_metrics, committed, window_s)
        errors += span_errors
        write_spans(spandir, workload, seed, gen, joined)
        info['joined_spans'] = len(joined)
    return gen['sent'], gen['sent'] - gen['exactly_once'], errors, e2e, layers, info


def per_layer(c, gen, marks, periodic, span_rings, final_metrics, committed, window_s):
    b, e = marks['FIXED_BEGIN'], marks['FIXED_END']
    mb, me = b['metrics'], e['metrics']
    per = lambda name: sum(promtext.delta(x, y, name) for x, y in zip(mb, me)) / committed
    node = lambda i, name: promtext.delta(mb[i], me[i], name) / committed
    others = [i for i in range(N) if i != LEADER]
    cpu = [x - y for x, y in zip(e['cpu'], b['cpu'])]
    L = {}
    L['net.frames_per_req'] = per('leopard_net_frames_sent_total')
    L['net.writev_per_req'] = per('leopard_net_writev_calls_total')
    L['net.bytes_per_req'] = per('leopard_net_bytes_sent_total')
    L['net.payload_copies_per_req'] = per('leopard_net_payload_copies_total')
    L['net.leader_bytes_sent_per_req'] = node(LEADER, 'leopard_net_bytes_sent_total')
    L['net.leader_bytes_recv_per_req'] = node(LEADER, 'leopard_net_bytes_received_total')
    L['net.replica_bytes_recv_per_req'] = statistics.mean(
        node(i, 'leopard_net_bytes_received_total') for i in others)
    L['net.send_queue_bytes_max'] = max(
        [promtext.total(m, 'leopard_net_send_queue_bytes') for scrape in periodic for m in scrape]
        or [0.0])
    L['net.frames_shed'] = sum(promtext.total(m, 'leopard_net_frames_shed_total') for m in final_metrics)
    L['net.decode_errors'] = sum(promtext.total(m, 'leopard_net_decode_errors_total')
                                 for m in final_metrics)
    L['net.reconnects'] = sum(promtext.total(m, 'leopard_net_peer_reconnects_total')
                              for m in final_metrics)

    L['proc.leader_cpu_us_per_req'] = cpu[LEADER] * 1e6 / committed
    L['proc.replica_cpu_us_per_req'] = statistics.mean(cpu[i] for i in others) * 1e6 / committed
    L['proc.gen_cpu_frac'] = (e['gen_cpu'] - b['gen_cpu']) / window_s

    total_mean = 0.0
    for stage in ('generation', 'dissemination', 'agreement', 'total'):
        p50, mean, _ = _window_quantiles(mb, me, 'leopard_request_stage_ns', 'stage="%s"' % stage)
        if stage == 'total':
            total_mean = mean / 1e6
            continue
        L['core.%s_p50_ms' % stage] = p50 / 1e6
        L['core.%s_mean_ms' % stage] = mean / 1e6
    L['core.client_gap_mean_ms'] = gen['fixed_mean_ms'] - total_mean
    sb, se = b['status'][0], e['status'][0]
    blocks = se['executed_blocks'] - sb['executed_blocks']
    L['core.reqs_per_datablock'] = committed / blocks if blocks else 0.0
    bft = se['executed_through'] - sb['executed_through']
    L['core.datablocks_per_bftblock'] = blocks / bft if bft else 0.0
    L['core.view_changes'] = sum(promtext.total(m, 'leopard_view_changes_total') for m in final_metrics)
    L['core.datablocks_recovered'] = sum(promtext.total(m, 'leopard_datablocks_recovered_total')
                                         for m in final_metrics)

    p50, _, _ = _window_quantiles(mb, me, 'leopard_wal_append_ns', '')
    _, wal_sum, _ = promtext.hist_window(mb, me, 'leopard_wal_append_ns')
    L['store.wal_append_p50_us'] = p50 / 1e3
    L['store.wal_append_us_per_req'] = wal_sum / 1e3 / N / committed
    wal_bytes = sum(os.path.getsize(os.path.join(c.rundir, 'data%d' % i, 'wal.log'))
                    for i in range(N))
    L['store.wal_bytes_per_req'] = wal_bytes / N / max(gen['exactly_once'], 1)

    L['gen.late_p99_ms'] = gen['late_p99_ms']

    joined = join_spans(c, span_rings)
    return L, joined, checks.check_span_causality(joined)


def join_spans(c, span_rings):
    """Maker spans from the /statusz rings, joined by (client, seq) to the
    generator's own record of each request (due, sent, acked)."""
    spans = {}
    for ring_set in span_rings:
        for st in ring_set:
            for s in st.get('traces', {}).get('spans', []):
                spans[(s['client_id'], s['seq'])] = dict(s, maker=st['id'])
    path = os.path.join(c.rundir, 'gen.records')
    records = {}
    wanted = {seq for (_, seq) in spans}
    with open(path) as f:
        for line in f:
            seq, due, sent, acked = (int(x) for x in line.split())
            if seq in wanted:
                records[seq] = (due, sent, acked)
    joined = []
    for (client, seq), s in sorted(spans.items()):
        rec = records.get(seq)
        if rec is None or rec[2] < 0:
            continue
        due, sent, acked = rec
        joined.append(dict(client=client, seq=seq, maker=s['maker'], due_ns=due, sent_ns=sent,
                           acked_ns=acked, gen_sent_to_ack_ns=acked - sent,
                           maker_total_ns=s['total_ns'], generation_ns=s['generation_ns'],
                           dissemination_ns=s['dissemination_ns'],
                           agreement_ns=s['agreement_ns']))
    return joined


def write_spans(spandir, workload, seed, gen, joined):
    """One span file per traced run: name, start, end, parent, with one id
    per request. Times are the generator's clock (ns since it started); the
    maker's stages are placed in the middle of the send->ack interval, since
    only durations cross process clocks."""
    os.makedirs(spandir, exist_ok=True)
    path = os.path.join(spandir, '%s-seed%d.jsonl' % (workload['name'], seed))
    with open(path, 'w') as f:
        for j in joined:
            rid = '%d-%d' % (j['client'], j['seq'])
            emit = lambda name, start, end, parent: f.write(json.dumps(dict(
                id=rid, name=name, start_ns=start, end_ns=end, parent=parent)) + '\n')
            emit('request', j['due_ns'], j['acked_ns'], None)
            emit('gen.wait', j['due_ns'], j['sent_ns'], 'request')
            emit('wire', j['sent_ns'], j['acked_ns'], 'request')
            slack = max(0, j['gen_sent_to_ack_ns'] - j['maker_total_ns']) // 2
            t = j['sent_ns'] + slack
            emit('maker.total', t, t + j['maker_total_ns'], 'wire')
            for stage in ('generation', 'dissemination', 'agreement'):
                emit('maker.' + stage, t, t + j[stage + '_ns'], 'maker.total')
                t += j[stage + '_ns']
    return path

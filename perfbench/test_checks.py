#!/usr/bin/env python3
"""Self-tests for the benchmark's correctness checks: each check passes on a
clean observation and fails on a doctored one.

    python3 perfbench/test_checks.py          (from the repository root)

The simulation checks live in src/pb_sim.cpp; they are exercised through
`pb_sim --self-test` when the benchmark has been built (.bench_build, or
$CARGO_TARGET_DIR).
"""

import copy
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import checks  # noqa: E402
import promtext  # noqa: E402

GEN = dict(sent=1000, exactly_once=1000, duplicated=0, missing=0, unknown_acks=0, io_errors=0)
REPORT = ('role=replica id=0 protocol=leopard n=4\n'
          'executed_requests=1000 executed_blocks=10\n'
          'exec_digest=aaaa\nstate_digest=bbbb\nview=1 executed_through=3\n')


def reports():
    return [checks.parse_report(REPORT) for _ in range(4)]


class AckChecks(unittest.TestCase):
    def test_clean(self):
        self.assertEqual(checks.check_acks(GEN), [])

    def test_dropped_ack(self):
        g = dict(GEN, exactly_once=999, missing=1)
        self.assertTrue(checks.check_acks(g))

    def test_duplicated_ack(self):
        g = dict(GEN, exactly_once=999, duplicated=1)
        self.assertTrue(checks.check_acks(g))

    def test_ack_never_sent(self):
        self.assertTrue(checks.check_acks(dict(GEN, unknown_acks=1)))

    def test_connection_error(self):
        self.assertTrue(checks.check_acks(dict(GEN, io_errors=1)))


class ReplicaChecks(unittest.TestCase):
    def test_clean(self):
        self.assertEqual(checks.check_digests(reports()), [])
        self.assertEqual(checks.check_executed(reports(), 1000), [])

    def test_one_digest_flipped(self):
        for key in ('exec_digest', 'state_digest'):
            r = reports()
            r[2][key] = 'cccc'
            self.assertTrue(checks.check_digests(r), key)

    def test_executed_count_differs(self):
        r = reports()
        r[3]['executed_requests'] = '999'
        self.assertTrue(checks.check_executed(r, 1000))
        self.assertTrue(checks.check_executed(reports(), 1001))

    def test_safety_violation(self):
        self.assertEqual(checks.check_safety([0, 0, 0, 0]), [])
        self.assertTrue(checks.check_safety([0, 1, 0, 0]))


class SpanChecks(unittest.TestCase):
    SPAN = dict(seq=7, gen_sent_to_ack_ns=5_000_000, maker_total_ns=4_000_000)

    def test_clean(self):
        self.assertEqual(checks.check_span_causality([self.SPAN]), [])

    def test_client_faster_than_maker(self):
        bad = dict(self.SPAN, gen_sent_to_ack_ns=3_000_000)
        self.assertTrue(checks.check_span_causality([self.SPAN, bad]))


class SimChecks(unittest.TestCase):
    RESULT = dict(injected=100, safety_violation=False,
                  checks=dict(digest_mismatch_reqs=0, reexecuted_reqs=0, duplicate_reqs=0,
                              bad_acks=0, observer_executed=90))

    def test_clean(self):
        self.assertEqual(checks.check_sim(self.RESULT), [])

    def test_each_counter_fails(self):
        for key in ('digest_mismatch_reqs', 'reexecuted_reqs', 'duplicate_reqs', 'bad_acks'):
            r = copy.deepcopy(self.RESULT)
            r['checks'][key] = 1
            self.assertTrue(checks.check_sim(r), key)
        r = copy.deepcopy(self.RESULT)
        r['checks']['observer_executed'] = 101
        self.assertTrue(checks.check_sim(r))

    def test_stream_checker(self):
        binary = os.path.join(os.getcwd(), os.environ.get('CARGO_TARGET_DIR') or '.bench_build',
                              'pb_sim')
        if not os.path.isfile(binary):
            self.skipTest('pb_sim not built (run perfbench/run.py once)')
        p = subprocess.run([binary, '--self-test'], capture_output=True, text=True, timeout=60)
        self.assertEqual(p.returncode, 0, p.stdout)


class WindowArithmetic(unittest.TestCase):
    def test_histogram_window(self):
        before = promtext.parse('h_bucket{le="2"} 1\nh_bucket{le="4"} 1\n'
                                'h_bucket{le="+Inf"} 1\nh_sum 1\nh_count 1\n')
        after = promtext.parse('h_bucket{le="2"} 1\nh_bucket{le="4"} 11\n'
                               'h_bucket{le="+Inf"} 11\nh_sum 31\nh_count 11\n')
        count, total, cum = promtext.hist_window([before], [after], 'h')
        self.assertEqual((count, total), (10, 30))
        p50 = promtext.quantile(cum, 0.5)
        self.assertTrue(2 <= p50 <= 4, p50)


if __name__ == '__main__':
    unittest.main()

"""Prometheus text parsing and window arithmetic over two scrapes.

A scrape is a dict {(name, labels): value}, where labels is the raw label
string without braces ("" when unlabelled). Histograms arrive as cumulative
power-of-two buckets (`_bucket{le=...}`) plus `_sum` and `_count`; a window's
distribution is the bucket-wise difference of two scrapes that bracket it.
"""

import math
import re

_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')


def parse(text):
    out = {}
    for line in text.splitlines():
        if not line or line.startswith('#'):
            continue
        m = _LINE.match(line.strip())
        if not m:
            continue
        try:
            out[(m.group(1), m.group(2) or '')] = float(m.group(3))
        except ValueError:
            continue
    return out


def total(scrape, name):
    """Sum of every series called `name`, whatever its labels."""
    return sum(v for (n, _), v in scrape.items() if n == name)


def delta(before, after, name):
    return total(after, name) - total(before, name)


def _buckets(scrape, name, labels):
    """[(upper_bound, cumulative_count)] for one histogram series."""
    out = []
    for (n, lab), v in scrape.items():
        if n != name + '_bucket':
            continue
        m = re.search(r'le="([^"]+)"', lab)
        if not m:
            continue
        rest = re.sub(r',?le="[^"]+"', '', lab).strip(',')
        if rest != labels:
            continue
        le = math.inf if m.group(1) == '+Inf' else float(m.group(1))
        out.append((le, v))
    out.sort()
    return out


def hist_window(scrapes_before, scrapes_after, name, labels=''):
    """Window histogram summed over several processes.

    Returns (count, sum, [(upper, cumulative)]) of the bucket-wise
    difference; `scrapes_*` are lists of per-process scrapes in the same
    order.
    """
    merged = {}
    count = 0.0
    total_sum = 0.0
    for b, a in zip(scrapes_before, scrapes_after):
        bb = dict(_buckets(b, name, labels))
        for le, v in _buckets(a, name, labels):
            merged[le] = merged.get(le, 0.0) + v - bb.get(le, 0.0)
        count += a.get((name + '_count', labels), 0.0) - b.get((name + '_count', labels), 0.0)
        total_sum += a.get((name + '_sum', labels), 0.0) - b.get((name + '_sum', labels), 0.0)
    return count, total_sum, sorted(merged.items())


def quantile(cumulative, q):
    """Quantile of cumulative power-of-two buckets, interpolated
    geometrically inside the bucket that holds it (0 when empty)."""
    if not cumulative or cumulative[-1][1] <= 0:
        return 0.0
    target = q * cumulative[-1][1]
    prev_le, prev_c = 0.0, 0.0
    for le, c in cumulative:
        if c >= target and c > prev_c:
            if math.isinf(le):
                return prev_le
            lo = max(prev_le, le / 2.0, 1.0)
            frac = (target - prev_c) / (c - prev_c)
            return lo * (le / lo) ** frac
        prev_le, prev_c = le, c
    return prev_le

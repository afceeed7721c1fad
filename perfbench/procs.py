"""Child-process registry: every process the benchmark starts is recorded
here, and reap_all() stops and waits for each one on every exit path
(success, a failed check, a timeout, SIGINT/SIGTERM)."""

import subprocess

_children = []


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    _children.append(p)
    return p


def reap_all(grace=5.0):
    for p in _children:
        if p.poll() is None:
            p.terminate()
    for p in _children:
        try:
            p.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    _children.clear()

"""Correctness checks over one run's independent observations.

Every check compares counts or properties that come from different
processes (generator against replicas, replica against replica, generator
against maker), never against a saved copy of earlier output. Each returns
a list of failure descriptions; an empty list means the check passed.
"""


def parse_report(text):
    """key=value pairs of a leopard_node SIGTERM report."""
    out = {}
    for line in text.splitlines():
        for tok in line.split():
            if '=' in tok:
                k, v = tok.split('=', 1)
                out[k] = v
    return out


def check_acks(gen):
    """Every sent (client, seq) acked exactly once; no ack for a request
    never sent."""
    errs = []
    if gen['duplicated']:
        errs.append('%d requests acked more than once' % gen['duplicated'])
    if gen['missing']:
        errs.append('%d requests never acked' % gen['missing'])
    if gen['unknown_acks']:
        errs.append('%d acks for requests never sent' % gen['unknown_acks'])
    if gen['io_errors']:
        errs.append('%d connection or frame errors at the generator' % gen['io_errors'])
    if gen['exactly_once'] + gen['duplicated'] + gen['missing'] != gen['sent']:
        errs.append('ack tally does not cover every sent request')
    return errs


def check_digests(reports):
    """All replicas agree on exec_digest and state_digest."""
    errs = []
    for key in ('exec_digest', 'state_digest'):
        values = [r.get(key) for r in reports]
        if None in values:
            errs.append('a replica report lacks %s' % key)
        elif len(set(values)) != 1:
            errs.append('replicas disagree on %s: %s' % (key, ', '.join(v[:12] for v in values)))
    return errs


def check_executed(reports, acked):
    """Each replica executed exactly the requests the generator saw acked."""
    errs = []
    for i, r in enumerate(reports):
        got = int(r.get('executed_requests', -1))
        if got != acked:
            errs.append('replica %d executed %d requests, the generator saw %d acked'
                        % (i, got, acked))
    return errs


def check_safety(values):
    """leopard_safety_violation stays 0 on every replica."""
    return ['replica %d reports a safety violation' % i for i, v in enumerate(values) if v != 0]


def check_span_causality(joined):
    """For every joined request, the generator's send->ack time is at least
    the maker's ingress->executed time."""
    bad = [j for j in joined if j['gen_sent_to_ack_ns'] < j['maker_total_ns']]
    if not bad:
        return []
    j = bad[0]
    return ['%d joined requests ack faster at the generator than the maker executed them '
            '(e.g. seq %d: %d ns < %d ns)'
            % (len(bad), j['seq'], j['gen_sent_to_ack_ns'], j['maker_total_ns'])]


def check_sim(result):
    """The simulation driver's own stream checks (see src/pb_sim.cpp)."""
    c = result['checks']
    errs = []
    if c['digest_mismatch_reqs']:
        errs.append('%d requests executed differently across replicas' % c['digest_mismatch_reqs'])
    if c['reexecuted_reqs'] or c['duplicate_reqs']:
        errs.append('%d requests executed twice'
                    % (c['reexecuted_reqs'] + c['duplicate_reqs']))
    if c['bad_acks']:
        errs.append('%d acks without a prior execution at the maker' % c['bad_acks'])
    if c['observer_executed'] > result['injected']:
        errs.append('more requests committed than injected')
    if result['safety_violation']:
        errs.append('the simulator flagged a safety violation')
    return errs

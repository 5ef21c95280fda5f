"""Independent reference implementations the tests compare against.

Everything here is deliberately written from scratch: these evaluators
share no code with the package, so a defect in the implementation and a
defect in its oracle would have to coincide to slip through.
"""

from itertools import product


def oracle_first_match(rules, packet):
    """Reference screening decision: 'allow', 'deny', or None for no match."""
    checks = {
        "src": lambda r, p: r.src == p.src.net,
        "dst": lambda r, p: r.dst == p.dst.net,
        "src_link": lambda r, p: r.src_link is None or r.src_link == p.src.link,
        "dst_link": lambda r, p: r.dst_link is None or r.dst_link == p.dst.link,
        "proto": lambda r, p: r.proto is None or r.proto == p.proto,
        "ttl_lo": lambda r, p: r.ttl_min is None or p.ttl >= r.ttl_min,
        "ttl_hi": lambda r, p: r.ttl_max is None or p.ttl <= r.ttl_max,
    }
    for rule in sorted(rules, key=lambda r: r.order):
        if all(check(rule, packet) for check in checks.values()):
            return rule.action.value
    return None


def oracle_forwarded_tags(rules, packets):
    """Payload tags a correct first-match default-deny screen lets through."""
    return {
        p.payload_tag for p in packets if oracle_first_match(rules, p) == "allow"
    }


def oracle_filter_bits(evidence):
    """The four screening bits, in label order, from traffic in, traffic out and journal.

    Forwarded/dropped keys at the evidence's level against the allow/deny
    keys the rules demand, then the journal's (src, dst) pairs against the
    forwarded/dropped pairs.
    """
    def key(p):
        if evidence.level.value == "network":
            return (p.src.net, p.dst.net)
        if evidence.level.value == "link":
            return (p.src.net, p.src.link or "", p.dst.net, p.dst.link or "")
        return (p.src.net, p.dst.net, p.proto, p.ttl)

    out_tags = {p.payload_tag for p in evidence.packet_out}
    blocked = [p for p in evidence.packet_in if p.payload_tag not in out_tags]
    decided = [(p, oracle_first_match(evidence.rules, p)) for p in evidence.packet_in]
    want_forward = {key(p) for p, action in decided if action == "allow"}
    want_drop = {key(p) for p, action in decided if action != "allow"}
    logged_pass = {(e.subject[0], e.subject[1]) for e in evidence.journal_allowed}
    logged_block = {(e.subject[0], e.subject[1]) for e in evidence.journal_denied}
    return (
        int({key(p) for p in evidence.packet_out} == want_forward),
        int({key(p) for p in blocked} == want_drop),
        int(logged_pass == {(p.src.net, p.dst.net) for p in evidence.packet_out}),
        int(logged_block == {(p.src.net, p.dst.net) for p in blocked}),
    )


def oracle_conform(claim_bits, outcome_bits):
    """Campaign verdict as the literal product over claim*outcome pairs."""
    result = 1
    for fr, fc in zip(claim_bits, outcome_bits):
        result *= fr * fc
    return result


def oracle_plan(groups, budget):
    """Cheapest-time full assignment by exhaustive enumeration.

    `groups` is a list of variant lists; returns (total_time, total_cost,
    variant_id tuple) for the winner or None when nothing fits the budget.
    Only meant for small instances.
    """
    best = None
    for combo in product(*groups):
        cost = sum(v.cost for v in combo)
        if budget is not None and cost > budget:
            continue
        key = (sum(v.time for v in combo), cost, tuple(v.variant_id for v in combo))
        if best is None or key < best:
            best = key
    return best

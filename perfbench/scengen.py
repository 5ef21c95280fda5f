"""Seeded scenario generator for the grid-screen and wide-report workloads.

The generator emits scenario text, which is all the program under test
receives, together with the ground truth it knows by construction: how
many probes each filter procedure must forward and how many it must drop.
That ground truth never comes from the package; it follows from how the
rules and the traffic were laid out here.

Every rule sits on its own (src, dst) pair, so a probe's fate depends on
that pair's rule alone: a probe that satisfies an allow rule is
forwarded, and every other probe (deny rule, near miss, pair without a
rule) is dropped. The product screens on every field at every filter
level, so the counts are the same for the three filter procedures; they
are still kept per level, which is how the benchmark checks them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FILTER_LEVELS = ("network", "link", "fields")
CLAIMS = "r1 r1-link r1-fields r2 r3"
_PROTOS = (1, 6, 17, 47, 50)

# Sign-on and integrity inventory, the same shape as the shipped
# reference scenario, so every procedure of the catalog runs.
_INVENTORY = """\
[accounts]
account alice s3cret!pass
account bob hunter-two

[files]
file screen.conf text:drop-by-default yes
file engine.bin hex:7f454c4600010203
file policy.db text:policy v1

[mutations]
mutate screen.conf flip 0
mutate engine.bin append hex:ff
"""


@dataclass(frozen=True)
class Shape:
    """Size of a generated scenario."""

    external: int
    internal: int
    rules: int
    constrained: int
    near_misses: bool


SHAPES = {
    "grid-screen": Shape(external=60, internal=60, rules=400, constrained=100, near_misses=True),
    "wide-report": Shape(external=100, internal=100, rules=10, constrained=1, near_misses=False),
}


@dataclass(frozen=True)
class Generated:
    """Scenario text plus the probe counts it must produce.

    `expected` maps each filter level to (forwarded, dropped) probe counts
    for that level's procedure.
    """

    text: str
    expected: dict[str, tuple[int, int]]
    probes: int


def _mac(segment: int, index: int) -> str:
    return f"02:00:5e:{segment:02x}:{index >> 8:02x}:{index & 0xFF:02x}"


def _address(segment: int, index: int) -> str:
    return f"10.{segment}.{index // 250}.{index % 250 + 1}"


def generate(shape: Shape, seed: int, name: str) -> Generated:
    """Scenario text for `shape`, laid out by `seed`; same seed, same text."""
    rng = random.Random(seed)
    pairs = [(s, d) for s in range(shape.external) for d in range(shape.internal)]
    ruled = rng.sample(range(len(pairs)), shape.rules)
    constrained = set(rng.sample(ruled, shape.constrained))

    lines = [
        "[profile]",
        f"name {name}",
        f"claims {CLAIMS}",
        "auth remote",
        f"seed {seed}",
        "",
        "[topology]",
    ]
    lines += [f"external e{i} {_address(1, i)} {_mac(0x10, i)}" for i in range(shape.external)]
    lines += [f"internal i{i} {_address(2, i)} {_mac(0x20, i)}" for i in range(shape.internal)]

    # pair index -> (allow, proto, ttl_min, ttl_max); the last three are
    # None on a rule that constrains no field.
    rule_of: dict[int, tuple] = {}
    lines += ["", "[rules]"]
    for p in ruled:  # random file order; pairs are distinct, so order is irrelevant
        s, d = pairs[p]
        allow = rng.random() < 0.5
        head = f"{'allow' if allow else 'deny'} e{s} i{d}"
        if p in constrained:
            proto = rng.choice(_PROTOS)
            low = rng.randint(16, 64)
            high = min(255, low + rng.randint(8, 128))
            rule_of[p] = (allow, proto, low, high)
            lines.append(f"{head} src-mac={_mac(0x10, s)} proto={proto} ttl={low}-{high}")
        else:
            rule_of[p] = (allow, None, None, None)
            lines.append(head)

    forwarded = dropped = 0
    lines += ["", "[traffic]"]
    for p, (s, d) in enumerate(pairs):
        head = f"packet e{s} i{d}"
        rule = rule_of.get(p)
        if rule is None or rule[1] is None:
            lines.append(head)
            if rule is not None and rule[0]:
                forwarded += 1
            else:
                dropped += 1
            continue
        allow, proto, low, high = rule
        ttl = rng.randint(low, high)
        lines.append(f"{head} proto={proto} ttl={ttl}")
        if allow:
            forwarded += 1
        else:
            dropped += 1
        if shape.near_misses:
            wrong = rng.choice([q for q in _PROTOS if q != proto])
            lines.append(f"{head} proto={proto} ttl={low - 1}")
            lines.append(f"{head} proto={wrong} ttl={ttl}")
            lines.append(f"{head} proto={proto} ttl={ttl} src-mac={_mac(0xFF, s)}")
            dropped += 3

    lines += ["", _INVENTORY]
    counts = (forwarded, dropped)
    return Generated(
        text="\n".join(lines),
        expected={level: counts for level in FILTER_LEVELS},
        probes=forwarded + dropped,
    )

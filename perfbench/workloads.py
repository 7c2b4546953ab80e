"""Seeded workload generators.

Each workload is built here from the benchmark seed, so edits to the
shipped scenario files never move the benchmark. The simulator seed is
the benchmark seed; the scenario dict varies with it only where the
variation leaves the latency distribution unchanged (client zones), so
figures from different seeds stay comparable.
"""
from __future__ import annotations

import random

# The four-region topology the shipped scenarios use (one-way WAN ms).
REGIONS = {"V": 4, "O": 3, "I": 3, "T": 3}
WAN_MS = {"V-O": 35, "V-I": 40, "V-T": 75, "O-I": 70, "O-T": 50, "I-T": 110}

# Per-message delay jitter. Without it every latency is a sum of whole
# hop delays, and percentiles read the same for every seed.
JITTER_MS = 1.0
# Schedules per IRMC variant: a fixed batch plus a batch from the seed.
CONFORMANCE_FIXED_SEED = 2009
CONFORMANCE_FIXED_SCHEDULES = 39
CONFORMANCE_SEEDED_SCHEDULES = 1


def _topology() -> dict:
    return {"regions": dict(REGIONS), "wan_ms": dict(WAN_MS),
            "inter_zone_ms": 1.0, "intra_zone_ms": 0.1, "jitter_ms": JITTER_MS}


def _clients(rng: random.Random, per_region: int, rate: float, mix: dict) -> list:
    out = []
    for region in REGIONS:
        for _ in range(per_region):
            out.append({"count": 1, "region": region, "rate_per_s": rate,
                        "zone": rng.randrange(REGIONS[region]), "mix": dict(mix)})
    return out


def writes_rc(seed: int) -> dict:
    rng = random.Random(f"writes-rc/{seed}")
    return {
        "name": "bench-writes-rc",
        "mode": "spider",
        "irmc": "rc",
        "duration_ms": 6000,
        "issue_until_ms": 4500,
        "warmup_ms": 500,
        "f_a": 1,
        "f_e": 1,
        "topology": _topology(),
        "agreement_region": "V",
        "groups": [{"id": i + 1, "region": r} for i, r in enumerate(REGIONS)],
        "clients": _clients(rng, 2, 10.0, {"write": 1.0}),
    }


def mixed_sc_f2(seed: int) -> dict:
    rng = random.Random(f"mixed-sc-f2/{seed}")
    return {
        "name": "bench-mixed-sc-f2",
        "mode": "spider",
        "irmc": "sc",
        "duration_ms": 5000,
        "issue_until_ms": 4000,
        "warmup_ms": 500,
        "f_a": 2,
        "f_e": 2,
        "topology": _topology(),
        "agreement_region": "V",
        # no execution group next to the agreement group: every strong op
        # crosses the WAN twice
        "groups": [{"id": 2, "region": "O"}, {"id": 3, "region": "I"},
                   {"id": 4, "region": "T"}],
        "clients": _clients(rng, 3, 12.0,
                            {"write": 0.3, "read_strong": 0.2, "read_weak": 0.5}),
        "faults": [
            {"node": "ag:0:5", "kind": "byzantine", "strategy": "withhold"},
            {"node": "ex:2:0", "kind": "byzantine", "strategy": "lying-collector"},
            {"node": "ex:3:1", "kind": "byzantine", "strategy": "equivocate-send"},
        ],
    }


def conformance_f2(seed: int) -> dict:
    # Each schedule draws its own WAN delay, group sizes and faults, so a
    # small batch moves the latency percentiles from seed to seed. A fixed
    # batch keeps the figures comparable; a smaller seeded batch brings
    # new schedules with every seed.
    return {"variants": ["rc", "sc"], "f_s": 2, "f_r": 2,
            "batches": [[CONFORMANCE_FIXED_SEED, CONFORMANCE_FIXED_SCHEDULES],
                        [seed, CONFORMANCE_SEEDED_SCHEDULES]]}


WORKLOADS = {
    "writes-rc": ("scenario", writes_rc),
    "mixed-sc-f2": ("scenario", mixed_sc_f2),
    "conformance-f2": ("conformance", conformance_f2),
}


def make_job(workload: str, seed: int) -> dict:
    kind, gen = WORKLOADS[workload]
    return {"workload": workload, "kind": kind, "seed": seed, "spec": gen(seed)}

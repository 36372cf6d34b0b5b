"""Differential testing: the builder's chunked sparse-bitset closure vs.
the reference oracle's plain-int reachability rows.

The two share no closure code, so agreement on every ordering query
checks the key-node reduction, the incremental closure and the query
indexes against the literal model.  Each app is queried on a sparse
set (pairs sampled across the whole trace) and a dense one (every pair
inside one window of consecutive operations), through both the
single-pair and the batched query paths."""

import random

import pytest

from repro.apps import ALL_APPS
from repro.hb import build_happens_before
from repro.hb.reference import ReferenceHappensBefore

SEED = 0
WINDOW = 120


def query_pairs(n, density):
    if density == "sparse":
        rng = random.Random(7)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(600)]
    lo = max(0, n // 2 - WINDOW // 2)
    window = range(lo, min(n, lo + WINDOW))
    return [(a, b) for a in window for b in window]


class TestOracleAgreement:
    @pytest.mark.parametrize("app_name", ["mytracks", "browser", "camera"])
    @pytest.mark.parametrize("density", ["sparse", "dense"])
    def test_builder_matches_reference_oracle(self, app_name, density):
        app_cls = next(a for a in ALL_APPS if a.name == app_name)
        trace = app_cls(scale=0.01, seed=SEED).run().trace
        hb = build_happens_before(trace)
        oracle = ReferenceHappensBefore(trace)
        pairs = query_pairs(len(trace), density)
        for a, b in pairs:
            assert hb.ordered(a, b) == oracle.ordered(a, b), (a, b)
        expected = [
            not oracle.ordered(a, b) and not oracle.ordered(b, a)
            for a, b in pairs
        ]
        assert hb.concurrent_pairs(pairs) == expected

"""Differential test of the sweep state's m-indexed table of optima.

A hidden JAG-M-OPT optimum ``B*(m)``, non-increasing in ``m``, is drawn;
optima of it are recorded in random order, and every ``bounds`` answer is
compared with a brute-force scan of the recorded facts under the
documented transfer rules.  Contradictory records must raise, and a
harvest → flush → load → seed round trip onto the ×3 instance must return
the same answers, scaled.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefix import prefix_2d
from repro.sweep import SweepInvariantError, use_sweep

POINTS = list(range(1, 9))
# gcd 1, so every fact survives the store's primitive-scale division
A = np.arange(1, 17, dtype=np.int64).reshape(4, 4)


def _oracle_bounds(facts, m):
    """``(exact, lb, ub)`` by scanning every recorded ``(m, B)``."""
    if m in facts:
        return facts[m], facts[m], facts[m]
    lb = max((B for q, B in facts.items() if q >= m), default=None)
    ub = min((B for q, B in facts.items() if q <= m), default=None)
    return None, lb, ub


def _answers(state, pref):
    return {m: state.bounds(pref, m) for m in POINTS}


def _scaled(answers, c):
    return {
        m: tuple(None if v is None else v * c for v in bounds)
        for m, bounds in answers.items()
    }


@st.composite
def recordings(draw):
    """A hidden non-increasing optimum plus the order its optima are recorded in."""
    steps = draw(st.lists(st.integers(0, 20), min_size=len(POINTS), max_size=len(POINTS)))
    opt = {m: 500 - sum(steps[:m]) for m in POINTS}
    order = draw(st.lists(st.sampled_from(POINTS), max_size=12))
    return opt, order, draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(recordings())
def test_table_matches_brute_force(drawn):
    opt, order, rnd = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "facts.json")
        pref = prefix_2d(A)
        facts: dict[int, int] = {}
        with use_sweep(store=path) as state:
            for m in order:
                state.record_opt(pref, m, opt[m])  # re-recording is a no-op
                facts[m] = opt[m]
            answers = _answers(state, pref)
            for m, bounds in answers.items():
                assert bounds == _oracle_bounds(facts, m), m

            if facts:
                m = rnd.choice(sorted(facts))
                above = rnd.choice([q for q in POINTS if q >= m])
                below = rnd.choice([q for q in POINTS if q <= m])
                with pytest.raises(SweepInvariantError):
                    state.record_opt(pref, above, facts[m] + 1)
                with pytest.raises(SweepInvariantError):
                    state.record_opt(pref, below, facts[m] - 1)
                assert _answers(state, pref) == answers  # rejected, not installed

        with use_sweep(store=path) as warm:
            assert _answers(warm, prefix_2d(3 * A)) == _scaled(answers, 3)

"""Differential test of the sweep state's one bound table.

A hidden optimum ``B*`` that is monotone under componentwise order is drawn
for the 1-D ``jag_m`` class and the 2-D ``jag_pq`` class, per scope (a
constrained scope's optimum is the unconstrained one plus a non-negative
offset).  Optima and feasible witnesses of it are recorded in random order,
unscoped and under ``num_stripes`` scopes, and every ``bounds``/``witness``
answer is compared with a brute-force scan of the recorded facts under the
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
from repro.sweep import SweepInvariantError, canonical_scope, use_sweep

SCOPES = [canonical_scope(kw) for kw in (None, {"num_stripes": 2}, {"num_stripes": 3})]
POINTS = {
    "jag_m": [(m,) for m in range(1, 7)],
    "jag_pq": [(P, Q) for P in range(1, 4) for Q in range(1, 4)],
}
# gcd 1, so every fact survives the store's primitive-scale division
A = np.arange(1, 17, dtype=np.int64).reshape(4, 4)


def _dominated(q, p):
    return all(a <= b for a, b in zip(q, p))


def _oracle_bounds(facts, cls, p, scope):
    """``(exact, lb, ub)`` by scanning every recorded ``(kind, cls, scope, point, B)``."""
    exact = [B for k, c, s, q, B in facts if (k, c, s, q) == ("opt", cls, scope, p)]
    if exact:
        return exact[0], exact[0], exact[0]
    lbs = [
        B
        for k, c, s, q, B in facts
        if k == "opt" and c == cls and s in (scope, ()) and _dominated(p, q)
    ]
    ubs = [
        B
        for k, c, s, q, B in facts
        if c == cls and (s == scope or scope == ()) and _dominated(q, p)
    ]
    if cls == "jag_m" and scope == ():
        ubs += [B for k, c, s, q, B in facts if c == "jag_pq" and q[0] * q[1] <= p[0]]
    if cls == "jag_pq":
        lbs += [
            B
            for k, c, s, q, B in facts
            if (k, c, s, q) == ("opt", "jag_m", (), (p[0] * p[1],))
        ]
    return None, max(lbs, default=None), min(ubs, default=None)


def _oracle_witness(facts, cls, p, scope):
    return min(
        (
            B
            for k, c, s, q, B in facts
            if c == cls
            and q == p
            and (
                (k == "ub" and (s == scope or scope == ()))
                or (k == "opt" and scope == () and s != ())
            )
        ),
        default=None,
    )


def _answers(state, pref):
    return {
        (cls, p, scope): (
            state.bounds(pref, cls, p, kw=scope),
            state.witness(pref, cls, p, kw=scope),
        )
        for cls, points in POINTS.items()
        for p in points
        for scope in SCOPES
    }


def _scaled(answers, c):
    def mul(v):
        return None if v is None else v * c

    return {
        key: (tuple(mul(v) for v in bounds), mul(wit))
        for key, (bounds, wit) in answers.items()
    }


@st.composite
def hidden_optima(draw):
    """``B*[(cls, scope, point)]``: monotone per scope, scopes >= unconstrained."""
    steps = draw(st.lists(st.integers(0, 20), min_size=6, max_size=6))
    rows = draw(st.lists(st.integers(0, 20), min_size=3, max_size=3))
    cols = draw(st.lists(st.integers(0, 20), min_size=3, max_size=3))
    offsets = [0] + draw(st.lists(st.integers(0, 15), min_size=2, max_size=2))
    base = {("jag_m", (m,)): 500 - sum(steps[:m]) for m in range(1, 7)}
    for P in range(1, 4):
        for Q in range(1, 4):
            base[("jag_pq", (P, Q))] = 500 - sum(rows[:P]) - sum(cols[:Q])
    return {
        (cls, scope, p): B + off
        for (cls, p), B in base.items()
        for scope, off in zip(SCOPES, offsets)
    }


@st.composite
def recordings(draw):
    """A hidden optimum plus a random sequence of facts proven about it."""
    opt = draw(hidden_optima())
    slots = sorted(opt)
    events = draw(
        st.lists(
            st.tuples(st.sampled_from(slots), st.booleans(), st.integers(0, 10)),
            max_size=40,
        )
    )
    facts = [
        ("opt", cls, scope, p, opt[(cls, scope, p)])
        if is_opt
        else ("ub", cls, scope, p, opt[(cls, scope, p)] + slack)
        for (cls, scope, p), is_opt, slack in events
    ]
    return facts, draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(recordings())
def test_table_matches_brute_force(drawn):
    facts, rnd = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "facts.json")
        pref = prefix_2d(A)
        with use_sweep(store=path) as state:
            for kind, cls, scope, p, B in facts:
                record = state.record_opt if kind == "opt" else state.record_ub
                record(pref, cls, p, B, kw=scope)
            answers = _answers(state, pref)
            for (cls, p, scope), (bounds, wit) in answers.items():
                assert bounds == _oracle_bounds(facts, cls, p, scope), (cls, p, scope)
                assert wit == _oracle_witness(facts, cls, p, scope), (cls, p, scope)

            opts = [f for f in facts if f[0] == "opt"]
            if opts:
                _, cls, scope, p, B = rnd.choice(opts)
                above = rnd.choice([q for q in POINTS[cls] if _dominated(p, q)])
                below = rnd.choice([q for q in POINTS[cls] if _dominated(q, p)])
                with pytest.raises(SweepInvariantError):
                    state.record_opt(pref, cls, above, B + 1, kw=scope)
                with pytest.raises(SweepInvariantError):
                    state.record_opt(pref, cls, below, B - 1, kw=scope)
                with pytest.raises(SweepInvariantError):
                    state.record_ub(pref, cls, below, B - 1, kw=scope)
                assert _answers(state, pref) == answers  # rejected, not installed

        with use_sweep(store=path) as warm:
            assert _answers(warm, prefix_2d(3 * A)) == _scaled(answers, 3)


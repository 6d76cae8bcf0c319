#!/usr/bin/env python
"""A tour of the partition classes of the paper (Figure 1) on one instance.

Renders each class of solution as ASCII art on a small Peak instance so the
structural differences are visible: rectilinear grids, P×Q-way jagged,
m-way jagged, hierarchical — plus the exact optima for the jagged classes
and their theoretical guarantees.

Run:  python examples/algorithm_tour.py
"""

import numpy as np

from repro import load_imbalance, lower_bound, partition_2d
from repro.instances import peak
from repro.theory.bounds import delta_of, jag_m_guarantee, jag_pq_guarantee

N, M = 24, 12
A = peak(N, seed=7)


def render(part, width=48):
    """ASCII owner map: one letter per cell block."""
    owner = part.owner_map()
    step = max(1, N // width)
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    lines = []
    for i in range(0, N, step):
        lines.append("".join(glyphs[owner[i, j] % len(glyphs)] for j in range(0, N, step)))
    return "\n".join(lines)


print(f"instance: {N}x{N} Peak, m={M}, delta={delta_of(A):.1f}")
print(f"lower bound Lmax >= {lower_bound(A, M):,}\n")

for name, blurb in [
    ("RECT-UNIFORM", "rectilinear grid, balances area not load (Fig 1a)"),
    ("RECT-NICOL", "rectilinear grid, iteratively refined (Fig 1a)"),
    ("JAG-PQ-HEUR", "P stripes x Q rectangles each (Fig 1b)"),
    ("JAG-PQ-OPT", "optimal P x Q-way jagged"),
    ("JAG-M-HEUR", "m-way jagged: variable rectangles per stripe (Fig 1c)"),
    ("JAG-M-OPT", "optimal m-way jagged (the paper's new class)"),
    ("HIER-RB", "recursive bisection (Fig 1d)"),
    ("HIER-RELAXED", "relaxed hierarchical DP"),
    ("HIER-OPT", "optimal hierarchical bipartition"),
]:
    part = partition_2d(A, M, name)
    part.validate()
    print(f"--- {name}: {blurb}")
    print(f"    Lmax = {part.max_load(A):,}   imbalance = {load_imbalance(A, part):.2%}")
    print("\n".join("    " + line for line in render(part).splitlines()[::4]))
    print()

P = Q = int(np.sqrt(M)) if int(np.sqrt(M)) ** 2 == M else None
print("theoretical guarantees (Theorems 1 and 3):")
print(f"  JAG-PQ-HEUR (P=3, Q=4): ratio <= {jag_pq_guarantee(A, 3, 4):.2f}")
print(f"  JAG-M-HEUR  (P=3):      ratio <= {jag_m_guarantee(A, 3, M):.2f}")

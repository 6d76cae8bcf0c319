"""Hot-path kernel and instrumentation layer (see ``docs/performance.md``).

The paper's headline engineering result is that careful algorithm
engineering turns exact 1D partitioning from minutes into milliseconds
(Probe with array slicing, NicolPlus bounding).  This package carries that
discipline through the 2D algorithms:

* :mod:`repro.perf.cache` — the bounded LRU memo behind
  :meth:`~repro.core.prefix.PrefixSum2D.axis_prefix` /
  :meth:`~repro.core.prefix.PrefixSum2D.boundary_list`: a stripe projection,
  or its probe-ready list form, is materialized once per (axis, lo, hi)
  instead of once per probe.
* :mod:`repro.perf.kernels` — the stable kernel interface: a registry of
  named kernels (``probe_batch``, ``min_parts``, ``probe_cuts``,
  ``weighted_cut``, ``relaxed_split``, ``alloc_tail``, ``probe_multi``),
  each with a scalar ``reference`` body and, where an end-to-end workload
  needs one, a vectorized ``numpy`` body; and the scalar §2.2 Probe walks.
  Production always calls the ``numpy`` slot; the ``reference`` body is the
  oracle the equality tests pin it against bit for bit.
* :mod:`repro.perf.counters` — near-zero-overhead operation counters (probe
  calls, greedy/bisection steps, rectangle-load queries) with a
  context-manager API; ``tests/test_complexity.py`` pins them against the
  paper's complexity bounds.
"""

from .cache import LRUCache
from .counters import OpCounters, bump, counting, op_counters
from .kernels import KERNELS

__all__ = [
    "KERNELS",
    "LRUCache",
    "OpCounters",
    "bump",
    "counting",
    "op_counters",
]

"""Hot-path kernel and instrumentation layer (see ``docs/performance.md``).

The paper's headline engineering result is that careful algorithm
engineering turns exact 1D partitioning from minutes into milliseconds
(Probe with array slicing, NicolPlus bounding).  This package carries that
discipline through the 2D algorithms:

* :mod:`repro.perf.config` — the kernel-backend switch (``numpy`` runs,
  ``reference`` is the oracle the equality tests compare it against bit for
  bit) and the projection-memo sizing knobs.
* :mod:`repro.perf.cache` — the bounded LRU memo behind
  :meth:`~repro.core.prefix.PrefixSum2D.axis_prefix` /
  :meth:`~repro.core.prefix.PrefixSum2D.boundary_list`: stripe projections
  and their probe-ready list forms are materialized once per (axis, lo, hi)
  instead of once per probe.
* :mod:`repro.perf.kernels` — the stable kernel interface: a registry of
  named kernels (``probe_batch``, ``min_parts``, ``probe_cuts``,
  ``weighted_cut``, ``relaxed_split``, ``alloc_tail``, ``probe_multi``),
  each with a scalar reference implementation and a vectorized numpy
  implementation, selected via ``REPRO_PERF_BACKEND``.
* :mod:`repro.perf.counters` — near-zero-overhead operation counters (probe
  calls, greedy/bisection steps, rectangle-load queries) with a
  context-manager API; the substrate for ROADMAP's RPL006 complexity
  budgets (see ``tests/test_complexity.py``).
"""

from .cache import LRUCache
from .config import cache_budget_bytes, perf_backend, set_perf_backend, use_perf_backend
from .counters import OpCounters, bump, counting, op_counters
from .kernels import KERNELS, kernel, min_parts_batch, probe_batch

__all__ = [
    "KERNELS",
    "LRUCache",
    "OpCounters",
    "bump",
    "cache_budget_bytes",
    "counting",
    "kernel",
    "min_parts_batch",
    "op_counters",
    "perf_backend",
    "probe_batch",
    "set_perf_backend",
    "use_perf_backend",
]

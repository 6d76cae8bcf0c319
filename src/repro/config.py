"""Central registry of every environment variable the repo reads.

Each knob the codebase consults from the environment is declared here once,
with its default and a one-line description.  The layer-specific config
modules (:mod:`repro.perf.config`, the sweep engine) keep their own
parsing — a backend name and a byte budget want different validation —
but the *names and defaults* live in this table, and ``repro-lint``
(RPL011) enforces three properties against it:

* every ``os.environ`` read in the tree happens inside a declared config
  module (this one, a ``*/config.py``, or the sweep engine);
* every variable name read anywhere is declared in :data:`ENV_VARS`;
* every declared variable is documented under ``docs/``.

``ENV_VARS`` must stay a plain dict literal with string-constant keys: the
lint rule reads it statically, without importing this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["EnvVar", "ENV_VARS", "env_str"]


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one environment knob."""

    default: str
    description: str
    consumer: str  #: module that parses and applies the value


ENV_VARS: dict[str, EnvVar] = {
    "REPRO_PERF_BACKEND": EnvVar(
        default="numpy",
        description="kernel-registry backend: reference (the scalar oracle) or numpy",
        consumer="repro.perf.config",
    ),
    "REPRO_PERF_CACHE_MB": EnvVar(
        default="64",
        description="per-prefix projection-cache budget in MiB",
        consumer="repro.perf.config",
    ),
    "REPRO_PERF_CACHE_MIN_CELLS": EnvVar(
        default="65536",
        description="instance size (cells) below which memoization is skipped",
        consumer="repro.perf.config",
    ),
    "REPRO_SWEEP_STORE": EnvVar(
        default="",
        description="sweep fact-store path; empty keeps sweeps in-memory",
        consumer="repro.sweep.engine",
    ),
    "REPRO_RAW_STORE": EnvVar(
        default="",
        description="raw figure-result store directory; empty recomputes every cell",
        consumer="repro.experiments.rawstore",
    ),
    "REPRO_SCALE": EnvVar(
        default="small",
        description="experiment scale profile: tiny, small, paper or large",
        consumer="repro.experiments.scale",
    ),
    "REPRO_SPARSE_THRESHOLD": EnvVar(
        default="0.25",
        description="density (nnz/cells) at or below which auto_substrate builds the CSR substrate; 0 disables sparse",
        consumer="repro.core.sparse",
    ),
    "REPRO_CACHE": EnvVar(
        default="",
        description="instance cache directory; empty means ~/.cache/repro",
        consumer="repro.instances.pic.dataset",
    ),
}


def env_str(name: str) -> str:
    """The current value of a *declared* variable, or its registered default.

    Raises ``KeyError`` for undeclared names — an env read that bypasses the
    registry is exactly what RPL011 exists to prevent, so the runtime
    accessor refuses it too.
    """
    spec = ENV_VARS[name]
    return os.environ.get(name, spec.default)  # repro-lint: disable=RPL011 — the registry accessor itself; the name is validated against ENV_VARS above

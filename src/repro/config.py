"""Central registry of every environment variable the repo reads.

Each knob the codebase consults from the environment is declared here once,
with its default and a one-line description.  Its consumer (the
``consumer`` field) keeps its own parsing but reads through
:func:`env_str`; the *names and defaults* live in this table.  ``repro-lint`` (RPL011) checks every
``os.environ`` read against it: the read happens inside a declared config
module (this one or a ``*/config.py``) and names a variable declared in
:data:`ENV_VARS`.  ``tests/test_lint.py`` checks that every declared
variable is documented under ``docs/`` and read as ``env_str("<NAME>")``
in its ``consumer`` module.
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

"""pytest plugin: the whole session runs on the scalar reference kernels.

``python -m pytest -p tests.reference_kernels tests/...`` puts every
``KERNELS`` entry's ``reference`` body into its ``numpy`` slot before
collection (see ``tests.conftest.reference_kernels``), so every solve of the
session, module-level ones included, runs on the oracles.  ``make
test-reference`` runs the solver suite this way.
"""

from __future__ import annotations

from contextlib import ExitStack

from .conftest import reference_kernels

_SESSION = ExitStack()


def pytest_configure(config) -> None:
    _SESSION.enter_context(reference_kernels())


def pytest_unconfigure(config) -> None:
    _SESSION.close()

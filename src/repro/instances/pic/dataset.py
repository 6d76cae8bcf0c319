"""PIC-MAG snapshot dataset with the paper's cadence and a disk cache.

The paper extracts "the distribution of the particles every 500 iterations of
the simulations for the first 33,500 iterations" (§4.1).
:class:`PICMagDataset` reproduces that cadence on the substitute simulator,
memoizes snapshots in memory, and optionally persists them to an ``.npz``
cache so repeated runs do not re-run the particle pusher.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ...config import env_str
from ...core.errors import ParameterError
from .simulator import PICConfig, PICMagSimulator

__all__ = ["PICMagDataset", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_CACHE`` or ``~/.cache/repro``."""
    env = env_str("REPRO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class PICMagDataset:
    """Snapshots of the PIC-MAG substitute every ``period`` iterations.

    Parameters
    ----------
    config:
        Simulator configuration (grid size, particle count, seed, ...).
    period:
        Snapshot cadence in iterations (500 in the paper).
    max_iteration:
        Last snapshot iteration (33 500 in the paper).
    cache:
        When true, snapshots are persisted under :func:`default_cache_dir`
        keyed by the configuration.
    """

    def __init__(
        self,
        config: PICConfig | None = None,
        *,
        period: int = 500,
        max_iteration: int = 33_500,
        cache: bool = True,
    ):
        if period <= 0:
            raise ParameterError("period must be positive")
        self.config = config or PICConfig()
        self.period = int(period)
        self.max_iteration = int(max_iteration)
        self._snapshots: dict[int, np.ndarray] = {}
        self._sim: PICMagSimulator | None = None
        self._cache_path: Path | None = None
        if cache:
            c = self.config
            key = (
                f"picmag_g{c.grid}_p{c.particles}_s{c.seed}_w{c.wind}"
                f"_d{c.dipole_strength}_b{c.base_load}_l{c.particle_load}"
                f"_per{self.period}_max{self.max_iteration}.npz"
            )
            self._cache_path = default_cache_dir() / key
            self._load_cache()

    # ------------------------------------------------------------------
    @property
    def iterations(self) -> list[int]:
        """All snapshot iterations: ``0, period, 2·period, …, max_iteration``."""
        return list(range(0, self.max_iteration + 1, self.period))

    def snapshot(self, iteration: int) -> np.ndarray:
        """Load matrix at ``iteration`` (must be a multiple of the cadence)."""
        if iteration % self.period != 0 or not (0 <= iteration <= self.max_iteration):
            raise ParameterError(
                f"iteration must be a multiple of {self.period} in "
                f"[0, {self.max_iteration}], got {iteration}"
            )
        if iteration not in self._snapshots:
            self._advance_to(iteration)
        return self._snapshots[iteration]

    def snapshots(self, iterations: list[int] | None = None):
        """Yield ``(iteration, load_matrix)`` pairs in increasing order."""
        for it in sorted(iterations if iterations is not None else self.iterations):
            yield it, self.snapshot(it)

    def stream(
        self,
        iterations: list[int] | None = None,
        *,
        substrate: str = "dense",
    ):
        """Scenario driver: yield ``(iteration, LoadView)`` pairs.

        The dynamic-loop entry point: each snapshot is wrapped in a load
        substrate ready for :meth:`repro.runtime.BSPSimulator.run` (which
        passes substrates through undensified).  ``substrate`` selects the
        wrapping:

        * ``"dense"`` — :class:`~repro.core.prefix.PrefixSum2D` (the full
          prefix grid Γ);
        * ``"sparse"`` — :class:`~repro.core.sparse.SparsePrefix2D` (CSR
          prefixes; right for mostly-empty grids);
        * ``"auto"`` — density-dispatched via
          :func:`~repro.core.sparse.auto_substrate`.
        """
        from ...core.prefix import PrefixSum2D
        from ...core.sparse import SparsePrefix2D, auto_substrate

        wrap = {
            "dense": PrefixSum2D,
            "sparse": SparsePrefix2D,
            "auto": auto_substrate,
        }.get(substrate)
        if wrap is None:
            raise ParameterError(
                f"substrate must be dense|sparse|auto, got {substrate!r}"
            )
        for it, A in self.snapshots(iterations):
            yield it, wrap(A)

    # ------------------------------------------------------------------
    def _advance_to(self, iteration: int) -> None:
        if self._sim is None:
            self._sim = PICMagSimulator(self.config)
        sim = self._sim
        if sim.iteration > iteration:
            # deterministic restart (snapshots were cached out of order)
            self._sim = sim = PICMagSimulator(self.config)
        while sim.iteration <= iteration:
            it = sim.iteration
            if it % self.period == 0 and it not in self._snapshots:
                self._snapshots[it] = sim.load_matrix()
            if it >= iteration:
                break
            sim.step(min(self.period, iteration - it))
        self._save_cache()

    # ------------------------------------------------------------------
    def _load_cache(self) -> None:
        p = self._cache_path
        if p is None or not p.exists():
            return
        with np.load(p) as data:
            for name in data.files:
                self._snapshots[int(name)] = data[name]

    def _save_cache(self) -> None:
        p = self._cache_path
        if p is None:
            return
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_suffix(".tmp.npz")
        np.savez_compressed(tmp, **{str(k): v for k, v in self._snapshots.items()})
        tmp.replace(p)

"""PIC-MAG snapshot dataset with the paper's cadence and a disk cache.

The paper extracts "the distribution of the particles every 500 iterations of
the simulations for the first 33,500 iterations" (§4.1).
:class:`PICMagDataset` reproduces that cadence on the substitute simulator,
memoizes snapshots in memory, and optionally persists them to an ``.npz``
cache so repeated runs do not re-run the particle pusher.  The cache is
read on demand: a snapshot decompresses only its own entry.
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
        self._read_cache([iteration])
        if iteration not in self._snapshots:
            self._advance_to(iteration)
        return self._snapshots[iteration]

    def snapshots(self, iterations: list[int] | None = None):
        """Yield ``(iteration, load_matrix)`` pairs in increasing order.

        The cached entries of all of them are read in one open of the cache.
        """
        its = sorted(iterations if iterations is not None else self.iterations)
        self._read_cache(its)
        for it in its:
            yield it, self.snapshot(it)

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
    def _read_cache(self, iterations: list[int]) -> None:
        """Adopt the cached entries of ``iterations`` not yet in memory.

        Each wanted entry is decompressed alone; the archive is closed on
        return.  An unreadable file, or an entry that is missing, unreadable
        or not a ``grid × grid`` int64 matrix, counts as missing: the
        simulator regenerates it and :meth:`_save_cache` rewrites the file.
        """
        p = self._cache_path
        want = [it for it in iterations if it not in self._snapshots]
        if p is None or not want or not p.exists():
            return
        n = self.config.grid
        try:
            with np.load(p) as data:
                names = set(data.files)
                for it in want:
                    if str(it) not in names:
                        continue
                    try:
                        A = data[str(it)]
                    except Exception:  # a damaged entry
                        continue
                    if A.shape == (n, n) and A.dtype == np.int64:
                        self._snapshots[it] = A
        except Exception:  # truncated, garbage, or not an .npz archive
            return

    def _save_cache(self) -> None:
        p = self._cache_path
        if p is None:
            return
        # the valid entries never read must survive the rewrite
        self._read_cache(self.iterations)
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_suffix(".tmp.npz")
        np.savez_compressed(tmp, **{str(k): v for k, v in self._snapshots.items()})
        tmp.replace(p)

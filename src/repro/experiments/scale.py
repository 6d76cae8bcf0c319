"""Experiment scaling profiles.

The paper's evaluation runs 512–8192-wide matrices up to 10 000 processors on
a C++ implementation; re-running every figure at that scale in Python is
possible but slow, so each experiment reads its parameters from a *scale
profile*:

* ``tiny`` — micro grids for smoke runs: every figure in seconds (the test
  suite and the CI ``figures-smoke`` job run here).
* ``small`` (default) — laptop-scale grids that preserve every qualitative
  phenomenon (who wins, crossovers, waves); minutes for the full suite.
* ``paper`` — the paper's matrix sizes, processor counts and snapshot
  cadence; hours for the full suite.

Select with ``repro-experiments --scale paper`` or the ``scale=`` argument
of the figure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ParameterError
from ..instances.pic import PICConfig

__all__ = ["Scale", "TINY", "SMALL", "PAPER", "get_scale"]


@dataclass(frozen=True)
class Scale:
    """All size knobs of the experiment suite."""

    name: str
    #: processor counts ("most square numbers between 16 and 10,000", §4.1)
    m_values: tuple[int, ...]
    #: processor cap for JAG-PQ-OPT series (paper runs it everywhere but
    #: reports tens of seconds; we cap it for the small profile)
    m_cap_pq_opt: int
    #: processor cap for JAG-M-OPT series ("on more than 1,000 processors,
    #: the runtime of the algorithm becomes prohibitive", §4.4)
    m_cap_m_opt: int
    #: synthetic matrix sizes per figure
    n_peak: int  # Fig 3
    n_multipeak: int  # Fig 4
    n_diagonal: int  # Figs 5, 10
    n_uniform: int  # Fig 6
    n_fig9: int  # Fig 9 (paper: 514)
    m_fig9: int  # Fig 9 (paper: 800)
    fig9_stripes: tuple[int, ...]  # stripe counts swept in Fig 9
    n_slac: int  # Fig 14
    n_spmv: int  # spmv histogram resolution (extension figures)
    #: number of random instances averaged for synthetic classes (paper: 10)
    seeds: int
    #: PIC-MAG dataset
    pic: PICConfig
    pic_period: int
    pic_max_iteration: int
    pic_fig7_iteration: int  # Fig 7 (paper: 30,000)
    pic_fig13_iteration: int  # Fig 13 (paper: 20,000)
    m_fig8: int  # Fig 8 (paper: 6,400)
    m_fig11: int  # Fig 11 (paper: 400)
    m_fig12: int  # Fig 12 (paper: 9,216)


TINY = Scale(
    name="tiny",
    m_values=(4, 9, 16),
    m_cap_pq_opt=16,
    m_cap_m_opt=9,
    n_peak=24,
    n_multipeak=24,
    n_diagonal=32,
    n_uniform=24,
    n_fig9=34,
    m_fig9=12,
    fig9_stripes=(2, 3, 5, 8),
    n_slac=32,
    n_spmv=48,
    seeds=2,
    pic=PICConfig(grid=24, particles=1200, seed=3),
    pic_period=100,
    pic_max_iteration=300,
    pic_fig7_iteration=300,
    pic_fig13_iteration=200,
    m_fig8=9,
    m_fig11=6,
    m_fig12=12,
)

SMALL = Scale(
    name="small",
    m_values=(16, 36, 64, 144, 256, 400),
    m_cap_pq_opt=400,
    m_cap_m_opt=144,
    n_peak=256,
    n_multipeak=128,
    n_diagonal=512,
    n_uniform=256,
    n_fig9=258,
    m_fig9=200,
    fig9_stripes=tuple(range(2, 72, 4)),
    n_slac=256,
    n_spmv=256,
    seeds=3,
    pic=PICConfig(grid=128, particles=30_000),
    pic_period=2_500,
    pic_max_iteration=30_000,
    pic_fig7_iteration=30_000,
    pic_fig13_iteration=20_000,
    m_fig8=400,
    m_fig11=100,
    m_fig12=576,
)

PAPER = Scale(
    name="paper",
    m_values=(16, 36, 100, 256, 529, 1024, 2025, 4096, 6400, 9216),
    m_cap_pq_opt=10_000,
    m_cap_m_opt=529,
    n_peak=1024,
    n_multipeak=512,
    n_diagonal=4096,
    n_uniform=512,
    n_fig9=514,
    m_fig9=800,
    fig9_stripes=tuple(range(2, 302, 8)),
    n_slac=512,
    n_spmv=512,
    seeds=10,
    pic=PICConfig(grid=512, particles=150_000, smooth=5, particle_load=22),
    pic_period=500,
    pic_max_iteration=33_500,
    pic_fig7_iteration=30_000,
    pic_fig13_iteration=20_000,
    m_fig8=6400,
    m_fig11=400,
    m_fig12=9216,
)

_PROFILES = {"tiny": TINY, "small": SMALL, "paper": PAPER}


def get_scale(name: str | Scale | None) -> Scale:
    """Resolve a profile by name, pass through Scale objects, None → ``small``.

    Anything else (an unknown name, a non-string) is a ``ParameterError``
    naming the argument and the profiles.
    """
    if name is None:
        return SMALL
    if isinstance(name, Scale):
        return name
    key = name.lower() if isinstance(name, str) else None
    if key not in _PROFILES:
        raise ParameterError(f"scale must be one of {sorted(_PROFILES)}, got {name!r}")
    return _PROFILES[key]

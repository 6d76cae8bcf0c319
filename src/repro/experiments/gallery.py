"""Image gallery: regenerate the paper's illustration figures as PPM files.

* **Figure 1** — one partition image per solution class (rectilinear,
  P×Q-way jagged, m-way jagged, hierarchical, spiral) on a Peak instance;
* **Figure 2** — one load-matrix image per instance class (PIC-MAG, SLAC,
  diagonal, peak, multi-peak, uniform), "the whiter the more computation".

Pure-NumPy PPM output (:mod:`repro.core.render`); no plotting dependency.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.partition import Partition
from ..core.prefix import PrefixSum2D
from ..core.registry import ALGORITHMS
from ..core.render import save_ppm
from ..instances import diagonal, multi_peak, peak, slac_instance, uniform
from ..instances.pic import PICConfig, PICMagDataset
from .scale import get_scale

__all__ = ["make_gallery"]

#: Figure 1's partition classes, reproduced with the implemented algorithms
FIG1_CLASSES = (
    ("rectilinear", "RECT-NICOL"),
    ("pq_jagged", "JAG-PQ-HEUR"),
    ("m_jagged", "JAG-M-HEUR"),
    ("hierarchical", "HIER-RB"),
    ("spiral", "SPIRAL-RELAXED"),
)


def make_gallery(out_dir: str | Path, scale=None, *, n: int = 96, m: int = 20) -> list[Path]:
    """Write the Figure 1 / Figure 2 galleries; returns the created paths."""
    sc = get_scale(scale)
    out = Path(out_dir)
    paths: list[Path] = []

    # Figure 1: partition structures on one Peak instance
    A = peak(n, seed=7)
    for label, algo in FIG1_CLASSES:
        part = ALGORITHMS[algo](A, m)
        paths.append(save_ppm(part, out / f"fig1_{label}.ppm", A=A, scale=2))

    # Figure 2: the instance classes (single-rectangle partition = pure
    # load shading, the paper's grayscale style)
    instances = {
        "uniform": uniform(n, 1.2, seed=0),
        "diagonal": diagonal(n, seed=0),
        "peak": peak(n, seed=0),
        "multi_peak": multi_peak(n, seed=0),
        "slac": slac_instance(max(n, 64)),
    }
    pic = PICMagDataset(
        PICConfig(grid=max(n, 64), particles=20_000, seed=5),
        period=2_000,
        max_iteration=2_000,
        cache=False,
    )
    instances["pic_mag"] = pic.snapshot(2_000)
    for label, mat in instances.items():
        pref = PrefixSum2D(mat)
        whole = Partition(np.array([[0, pref.n1, 0, pref.n2]]), pref.shape)
        paths.append(save_ppm(whole, out / f"fig2_{label}.ppm", A=pref, scale=2))
    return paths

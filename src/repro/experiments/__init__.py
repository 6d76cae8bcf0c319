"""Experiment harness: per-figure reproductions, scaling profiles, CLI."""

from .extensions import ALL_EXTENSIONS
from .figures import ALL_FIGURES
from .harness import FigureResult, timed
from .rawstore import RawStore, current_raw_store, use_raw_store
from .scale import PAPER, SMALL, TINY, Scale, get_scale

__all__ = [
    "ALL_EXTENSIONS",
    "ALL_FIGURES",
    "FigureResult",
    "timed",
    "RawStore",
    "current_raw_store",
    "use_raw_store",
    "PAPER",
    "SMALL",
    "TINY",
    "Scale",
    "get_scale",
]

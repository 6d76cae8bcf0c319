"""Jagged partitions: P×Q-way and the paper's new m-way class (§3.2)."""

from .common import build_jagged_partition, choose_pq, default_stripe_count
from .m_heur import allocate_processors, jag_m_heur
from .m_opt import jag_m_opt, jag_m_opt_bottleneck, jag_m_opt_dp_bottleneck
from .pq_heur import jag_pq_heur
from .pq_opt import jag_pq_opt, jag_pq_opt_bottleneck, jag_pq_opt_dp_bottleneck

__all__ = [
    "build_jagged_partition",
    "choose_pq",
    "default_stripe_count",
    "allocate_processors",
    "jag_m_heur",
    "jag_m_opt",
    "jag_m_opt_bottleneck",
    "jag_m_opt_dp_bottleneck",
    "jag_pq_heur",
    "jag_pq_opt",
    "jag_pq_opt_bottleneck",
    "jag_pq_opt_dp_bottleneck",
]

"""sha256 pins of the exact jagged partitions on the fig06 and fig07 instances.

Each pin is ``(sha256 of coords(), meta["lmax"], meta["orientation"])`` of
the -HOR, -VER and -BEST solves on the small-profile Uniform (fig06) and
PIC-MAG (fig07) instances, at every m those figures run JAG-PQ-OPT
(``PINS``) and JAG-M-OPT (``M_OPT_PINS``) at.  The JAG-PQ-OPT digests were
taken from the solver that bisected the midpoint and ran -BEST as two full
solves; the JAG-M-OPT digests from the one whose capped stripe walks ran
every greedy step and read their stripes through the projection memo.  A
change to a search that moves one rectangle, the optimum or the -BEST
tie-break fails here.  The fig07 snapshot comes from the PIC-MAG instance
cache (``REPRO_CACHE``), generated on first use.

``HEURISTIC_PINS`` pin ``(sha256 of coords(), max load)`` of two heuristics
on a 128² peak, at m values no figure runs: JAG-M-HEUR where √m rounds up
(m = 7 and 14: truncating √m gives one stripe fewer) and HIER-RB-DIST from a
square root, where the DIST rule's tie between equal sides decides the first
cut.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.prefix import PrefixSum2D
from repro.core.registry import partition_2d
from repro.experiments.figures import _pic_dataset
from repro.experiments.scale import get_scale
from repro.instances import peak, uniform
from repro.jagged import jag_m_opt, jag_pq_opt

SMALL = get_scale("small")

PINS = {
    ("fig06", 16, "hor"): (
        "72271578ec21d2b2a982aca69f6057ba6c651c3250ff4e5801d1a7b5fddd98de", 4510210, "hor"
    ),
    ("fig06", 16, "ver"): (
        "d47b3a32f3b56ff88b0333e9011601221061fbf66f7ccb6974d0ab47f0431865", 4510210, "ver"
    ),
    ("fig06", 16, "best"): (
        "72271578ec21d2b2a982aca69f6057ba6c651c3250ff4e5801d1a7b5fddd98de", 4510210, "hor"
    ),
    ("fig06", 36, "hor"): (
        "67330f57b186855130c457ab7d1c77ec80171abd9da8464a4b931324c6739457", 2034248, "hor"
    ),
    ("fig06", 36, "ver"): (
        "afd8a4a432ef9ecaa2496d39ef98ddde99ba98a6d8af176b656465fd9ca8570d", 2034344, "ver"
    ),
    ("fig06", 36, "best"): (
        "67330f57b186855130c457ab7d1c77ec80171abd9da8464a4b931324c6739457", 2034248, "hor"
    ),
    ("fig06", 64, "hor"): (
        "28ad64e798c9cec481e2962dd7485f125bcc11e21cbecb46500259b866ab9c53", 1130749, "hor"
    ),
    ("fig06", 64, "ver"): (
        "897f90d6363ebe22c6092640f4b2cbb466a7436b04b9b33d5e17b6a5230063e2", 1130749, "ver"
    ),
    ("fig06", 64, "best"): (
        "28ad64e798c9cec481e2962dd7485f125bcc11e21cbecb46500259b866ab9c53", 1130749, "hor"
    ),
    ("fig06", 144, "hor"): (
        "f0c6e6c96cee542bcdc4ea44d1b8a4038b458726ac05b961a86c8c0d527f1e7a", 531493, "hor"
    ),
    ("fig06", 144, "ver"): (
        "89bbfff8ecb9cae356eeaa916c48108abbe431a135ada13873ecf9208347da14", 531409, "ver"
    ),
    ("fig06", 144, "best"): (
        "89bbfff8ecb9cae356eeaa916c48108abbe431a135ada13873ecf9208347da14", 531409, "ver"
    ),
    ("fig06", 256, "hor"): (
        "e9c369b7d9caa7e864b899c2c1d9190f7c937a094b7a4a0bd54c0faf51c3b724", 283647, "hor"
    ),
    ("fig06", 256, "ver"): (
        "20963041d1e3706fa838ec47d1676240a265db97782fa7379e42984e0a27f538", 283647, "ver"
    ),
    ("fig06", 256, "best"): (
        "e9c369b7d9caa7e864b899c2c1d9190f7c937a094b7a4a0bd54c0faf51c3b724", 283647, "hor"
    ),
    ("fig06", 400, "hor"): (
        "9448329c21f027ccbdb696291330b2a7f42bcd1e7716dd5d58c6877e5efd016c", 186620, "hor"
    ),
    ("fig06", 400, "ver"): (
        "fb2871170318f6ff62e550d0ce1b8dcc1f60e4f2eefca621b4c01e9f5a0d04d6", 186599, "ver"
    ),
    ("fig06", 400, "best"): (
        "fb2871170318f6ff62e550d0ce1b8dcc1f60e4f2eefca621b4c01e9f5a0d04d6", 186599, "ver"
    ),
    ("fig07", 16, "hor"): (
        "f1634199d7eb0fd2017ea4654ebed9fbc7711a6ff100b54b5b031f14f56934a9", 1074604, "hor"
    ),
    ("fig07", 16, "ver"): (
        "32df73ad562def1df315eb632cd05ec99c3685a7c926403ca9c24dabf1e13812", 1073007, "ver"
    ),
    ("fig07", 16, "best"): (
        "32df73ad562def1df315eb632cd05ec99c3685a7c926403ca9c24dabf1e13812", 1073007, "ver"
    ),
    ("fig07", 36, "hor"): (
        "1a5ef175570d4213f723686a36c039ab4b59e36af77e6da4e39eac08107701cf", 489601, "hor"
    ),
    ("fig07", 36, "ver"): (
        "f30ff3d5218221c3b3b061dde32e01e5ef5badedb7cae78280d2074e94db6caa", 489601, "ver"
    ),
    ("fig07", 36, "best"): (
        "1a5ef175570d4213f723686a36c039ab4b59e36af77e6da4e39eac08107701cf", 489601, "hor"
    ),
    ("fig07", 64, "hor"): (
        "aa2ddfc0713b52f11b22e6f9537a982e301d82b07d645c981a27ff3ac4ba99d7", 275848, "hor"
    ),
    ("fig07", 64, "ver"): (
        "3a49eaf8b5582da6fa52b637dba18bf432e711a7dd44dfc3db7179aab312b0c0", 273623, "ver"
    ),
    ("fig07", 64, "best"): (
        "3a49eaf8b5582da6fa52b637dba18bf432e711a7dd44dfc3db7179aab312b0c0", 273623, "ver"
    ),
    ("fig07", 144, "hor"): (
        "fa6d997eabfb9473979bd2bbc725d4b01d1269501cc8424b78a15f97a747bb87", 124200, "hor"
    ),
    ("fig07", 144, "ver"): (
        "359dda84c395187e2f36b7f57e8dd77358d869b70589bec1bce0436b2a85a16c", 124380, "ver"
    ),
    ("fig07", 144, "best"): (
        "fa6d997eabfb9473979bd2bbc725d4b01d1269501cc8424b78a15f97a747bb87", 124200, "hor"
    ),
    ("fig07", 256, "hor"): (
        "564b35ed3b3a9113ccbcd20c25ba09634c7a0949d4396c2dfaea44b8d3a255f9", 72870, "hor"
    ),
    ("fig07", 256, "ver"): (
        "a10a0ddce56a9a13a68198b5511eda01efaa5df2054a2a5dc6eef8d1e4713a61", 72257, "ver"
    ),
    ("fig07", 256, "best"): (
        "a10a0ddce56a9a13a68198b5511eda01efaa5df2054a2a5dc6eef8d1e4713a61", 72257, "ver"
    ),
    ("fig07", 400, "hor"): (
        "f5c08c2dfcdfda05727d2983f5322346803db9f095a0cdeadde2a97499b49be7", 50102, "hor"
    ),
    ("fig07", 400, "ver"): (
        "11194c74712736a306ca7b972dc3cfbf9dc3e2cfd380c4360852d35de75eb0de", 50083, "ver"
    ),
    ("fig07", 400, "best"): (
        "11194c74712736a306ca7b972dc3cfbf9dc3e2cfd380c4360852d35de75eb0de", 50083, "ver"
    ),
}

M_OPT_PINS = {
    ("fig06", 16, "hor"): (
        "122fbe76aba1140782e20bc55f20753ab89540d984351c4c88f691183a7a3678", 4506755, "hor"
    ),
    ("fig06", 16, "ver"): (
        "d5cdd0214b98bef66e467f841edc622968562bd801829e9a8037abbaea476532", 4507033, "ver"
    ),
    ("fig06", 16, "best"): (
        "122fbe76aba1140782e20bc55f20753ab89540d984351c4c88f691183a7a3678", 4506755, "hor"
    ),
    ("fig06", 36, "hor"): (
        "62a8a895ec421ebbbd96410039e997bc4ad344a418dd70737f648315481a429d", 2009830, "hor"
    ),
    ("fig06", 36, "ver"): (
        "70b36f86dfa768efd221afd8fa70bd20c86d4773eeb8387e60d31cb72e988ace", 2008968, "ver"
    ),
    ("fig06", 36, "best"): (
        "70b36f86dfa768efd221afd8fa70bd20c86d4773eeb8387e60d31cb72e988ace", 2008968, "ver"
    ),
    ("fig06", 64, "hor"): (
        "3a9a90812405216f41ec0d4fe502167f0bce5ed6058875ec82cba5da62975ae7", 1127757, "hor"
    ),
    ("fig06", 64, "ver"): (
        "3e656dd9485d94566466270aed89c827b0f35471336001f1baa147ddd90751bd", 1128193, "ver"
    ),
    ("fig06", 64, "best"): (
        "3a9a90812405216f41ec0d4fe502167f0bce5ed6058875ec82cba5da62975ae7", 1127757, "hor"
    ),
    ("fig06", 144, "hor"): (
        "d4ef1a05b1dda2bcde952aa76f64125b047cc116bed5585d55e0e338b4c30f43", 503860, "hor"
    ),
    ("fig06", 144, "ver"): (
        "663912f4f8663ab4db2d61b797e9493301ade9cf665110411bbbd34cf62da73e", 503569, "ver"
    ),
    ("fig06", 144, "best"): (
        "663912f4f8663ab4db2d61b797e9493301ade9cf665110411bbbd34cf62da73e", 503569, "ver"
    ),
    ("fig07", 16, "hor"): (
        "c95e19ab537915d9fe4426410455307b6649d97da3c366af451e3143c34767a5", 1064772, "hor"
    ),
    ("fig07", 16, "ver"): (
        "810578ea5fe38e588b1aeebcd70193949f0d832741a9c66b3931952b3af44ef2", 1058363, "ver"
    ),
    ("fig07", 16, "best"): (
        "810578ea5fe38e588b1aeebcd70193949f0d832741a9c66b3931952b3af44ef2", 1058363, "ver"
    ),
    ("fig07", 36, "hor"): (
        "29a437811ba86b61db8efcd8778b17041786ac33d31e71eff03c64f5d2073c8a", 472701, "hor"
    ),
    ("fig07", 36, "ver"): (
        "95febe77bfd9a6c520f58571b75920c63611f3a10f1b7edab499ba49d7b08e32", 477228, "ver"
    ),
    ("fig07", 36, "best"): (
        "29a437811ba86b61db8efcd8778b17041786ac33d31e71eff03c64f5d2073c8a", 472701, "hor"
    ),
    ("fig07", 64, "hor"): (
        "3031ada4cd94f67208e773fc156ebf5c2aa6bc62dd926338aeeb633b0831f1b2", 266825, "hor"
    ),
    ("fig07", 64, "ver"): (
        "97fe4ed109acf24aa38834e38bfd674e451618dc73689e010efda58010d30674", 266533, "ver"
    ),
    ("fig07", 64, "best"): (
        "97fe4ed109acf24aa38834e38bfd674e451618dc73689e010efda58010d30674", 266533, "ver"
    ),
    ("fig07", 144, "hor"): (
        "9c8c907927c6150d883174eac54d02566072ae645436978b6a1b565ea5022c43", 119079, "hor"
    ),
    ("fig07", 144, "ver"): (
        "bb588166feb2854aeb4740100552d1e36edb6c7e4880b96b47244c7ecad5b1bc", 119542, "ver"
    ),
    ("fig07", 144, "best"): (
        "9c8c907927c6150d883174eac54d02566072ae645436978b6a1b565ea5022c43", 119079, "hor"
    ),
}

HEURISTIC_PINS = {
    ("JAG-M-HEUR", 7): (
        "42fb0662833d2568c28e6ad793ea0f87608c6896864713303506b58903316ab4", 582997
    ),
    ("JAG-M-HEUR", 14): (
        "accdac9d8a20a7bfa406f8a5c5b4d692fe18075973b5f35d792ff41e4f6bfe18", 294678
    ),
    ("HIER-RB-DIST", 7): (
        "deb958c935d9e380856386a450f98734ba4cc7ac36f882ffb4520da396c5db33", 500509
    ),
    ("HIER-RB-DIST", 16): (
        "cbbd60b4d7cb31445ccd90f5fa5686fd44beb970d19ba501a2cb3c039c34b7c6", 228750
    ),
    ("HIER-RB-DIST", 30): (
        "5634daef4a9a0652db26f20b4ad8c39ee347f307687ec3426766972e5d8a51f6", 139782
    ),
    ("HIER-RB-DIST", 100): (
        "9d053815ab48f58072cefc822309f65dbdc75e0036c461ddfd80545d171ab555", 54969
    ),
}


@pytest.fixture(scope="module")
def instances():
    return {
        "fig06": PrefixSum2D(uniform(SMALL.n_uniform, 1.2, seed=0)),
        "fig07": PrefixSum2D(_pic_dataset(SMALL).snapshot(SMALL.pic_fig7_iteration)),
    }


def test_pins_cover_the_figures_cells():
    for pins, m_cap in ((PINS, SMALL.m_cap_pq_opt), (M_OPT_PINS, SMALL.m_cap_m_opt)):
        ms = [m for m in SMALL.m_values if m <= m_cap]
        want = {(f, m, o) for f in ("fig06", "fig07") for m in ms for o in ("hor", "ver", "best")}
        assert set(pins) == want


@pytest.mark.parametrize("fig,m,orientation", sorted(PINS))
def test_jag_pq_opt_partition_is_pinned(instances, fig, m, orientation):
    part = jag_pq_opt(instances[fig], m, orientation=orientation)
    got = (
        hashlib.sha256(part.coords().tobytes()).hexdigest(),
        part.meta["lmax"],
        part.meta["orientation"],
    )
    assert got == PINS[fig, m, orientation]


@pytest.mark.parametrize("fig,m,orientation", sorted(M_OPT_PINS))
def test_jag_m_opt_partition_is_pinned(instances, fig, m, orientation):
    part = jag_m_opt(instances[fig], m, orientation=orientation)
    got = (
        hashlib.sha256(part.coords().tobytes()).hexdigest(),
        part.meta["lmax"],
        part.meta["orientation"],
    )
    assert got == M_OPT_PINS[fig, m, orientation]


@pytest.fixture(scope="module")
def peak128():
    return peak(128, seed=0)


@pytest.mark.parametrize("method,m", sorted(HEURISTIC_PINS))
def test_heuristic_partition_is_pinned(peak128, method, m):
    part = partition_2d(peak128, m, method)
    got = (hashlib.sha256(part.coords().tobytes()).hexdigest(), part.max_load(peak128))
    assert got == HEURISTIC_PINS[method, m]

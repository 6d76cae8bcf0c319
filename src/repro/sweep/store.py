"""Disk-backed, content-addressed persistence for JAG-M-OPT facts.

Facts proved inside one ``use_sweep()`` scope (the m-indexed JAG-M-OPT
optima and the stripe/probe memo) die with the process; this module
persists them so a later process — replaying a snapshot stream, or
partitioning the *same* physical instance again — starts warm.  Mirroring
how production partitioners amortize repartitioning cost across
timesteps, the store is keyed by *content*:

* the instance digest is ``SHA-256`` over the load matrix's dtype tag,
  shape, and the bytes of its **primitive** form (the matrix is the
  substrate's ``cells_dense()``, dense or CSR alike) ``A' = A // g`` where
  ``g = gcd(A)`` — so instances that differ only by a positive integer
  scale factor share one entry;
* facts are stored at primitive scale and rescaled on the way in and out:
  ``Lmax(c·A) = c·Lmax(A)`` for every fixed rectangle set, so optima
  multiply by the live scale exactly.  Stripe-count facts transfer
  through ``parts(c·A', B) = parts(A', B // c)`` (integer loads:
  ``c·l <= B  ⟺  l <= ⌊B/c⌋``).

The store reads a live state only through
:meth:`~repro.sweep.state.SweepState.facts` and writes it only through
``record_opt`` and ``stripe_memo``, so the table layout stays private to
:mod:`repro.sweep.state`.  An instance entry is ``{"shape", "opt",
"stripe"}`` where ``opt`` is a list of ``[m, B]`` pairs, ``B`` at
primitive scale.  A -BEST JAG-M-OPT solve records only the winning
orientation's optimum; the losing orientation's entry (the transposed
matrix) carries only the probe facts showing it does not fit below it.

File format (version 3): one JSON document ``{"format", "version",
"payload", "sha256"}`` where ``sha256`` covers the canonical (sorted,
compact) serialization of ``payload``.  A file that fails to parse, fails
the checksum, or carries another version (including the version-2 files
that held heuristic witnesses and hierarchical node memos) is **ignored,
never trusted** — and every seeded optimum still passes the in-memory
validator, so even a checksum-valid but semantically poisoned store cannot
install a contradiction (seeding stops at the first rejected fact).  A
lone wrong optimum contradicts nothing on record, so seeding accepts it;
the solve that disproves it (``record_opt`` rejects its result, or the
DP that confirms a seeded bracket end finds it infeasible) makes the state forget the
instance's seeded facts and re-solve cold, and the next flush replaces
the instance's entry instead of merging into it (:meth:`SweepStore.drop`).
:func:`canonical_sha256` and :func:`write_json_atomic` are the integrity
envelope this store shares with the figure farm's raw store
(:mod:`repro.experiments.rawstore`).

Flushing is a read-merge-write: the current file is re-read, the harvest
since the last flush is merged in (conflicting optima are dropped
entirely), and the result is written to a temp file in the same directory
and ``os.replace``-d over the target — atomic on POSIX, so concurrent
flushes end last-writer-wins and never corrupt the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import suppress
from typing import Any

import numpy as np

from ..core.prefix import LoadView, PrefixSum2D, _as_int64
from ..core.sparse import SparsePrefix2D
from .state import SweepInvariantError, SweepState

__all__ = [
    "SweepStore",
    "canonical_sha256",
    "instance_digest",
    "matrix_digest",
    "write_json_atomic",
]

_FORMAT = "repro-sweep-store"
_VERSION = 3

#: reserved stripe-memo key for whole-matrix probe facts — must match
#: ``repro.jagged.m_opt._PROBE_KEY`` (a deliberate string constant, not an
#: import: the store stays independent of the algorithm packages)
_PROBE_KEY = "f"

#: per-instance cap on each fact list: entries beyond it are dropped at
#: harvest time (deterministically, keeping the first ones) so one
#: pathological run cannot grow the store without bound
_MAX_FACTS = 4096

#: leading entries whose gcd :func:`matrix_digest` takes before any full scan
_GCD_PREFIX = 1024


def canonical_sha256(obj: Any) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding of ``obj``."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_json_atomic(path: str, doc: Any) -> None:
    """Write ``doc`` to ``path`` as compact sorted-key JSON, atomically.

    The bytes go to a temp file in the target directory that
    ``os.replace`` then moves over ``path``; the temp file is unlinked on
    any failure, so a reader sees the old file or the new one, never a
    torn write.  ``json.dumps`` encodes in C where ``json.dump`` to a file
    takes the pure-Python encoder; the bytes are the same.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def matrix_digest(A: np.ndarray) -> tuple[str, int]:
    """``(digest, scale)`` of an integer load array (any dimensionality).

    ``scale`` is the gcd of all loads (1 for the zero array); the digest
    hashes dtype, shape, and the primitive array ``A // scale``, so any
    positive-integer multiple of the same primitive maps to the same
    entry.  Shape is part of the hashed material: arrays with identical
    bytes but different shapes get different digests.  Entries must be
    exact non-negative integers within int64 (a ``ParameterError``
    otherwise), so no inexact array shares an exact one's digest.  The gcd
    of a short prefix comes first: gcd(all) divides it, so where it is 1
    the whole array is never scanned.
    """
    A = _as_int64(np.asarray(A), "load array")
    flat = A.reshape(-1)
    scale = int(np.gcd.reduce(flat[:_GCD_PREFIX]))  # 0 for an empty prefix
    if scale != 1:
        scale = int(np.gcd.reduce(flat)) or 1
    prim = A if scale == 1 else A // scale
    h = hashlib.sha256()
    h.update(b"int64|")
    h.update(repr(tuple(prim.shape)).encode())
    h.update(b"|")
    h.update(prim)
    return h.hexdigest(), scale


def instance_digest(pref: LoadView) -> tuple[str, int]:
    """``(digest, scale)`` of a substrate's underlying load matrix.

    Hashes the primitive form of :meth:`~repro.core.prefix.LoadView.cells_dense`
    via :func:`matrix_digest`; the dense and the CSR substrate of one logical
    matrix digest to the same value, so warm facts transfer across them.
    """
    return matrix_digest(pref.cells_dense())


class SweepStore:
    """One store file: load once, seed/harvest instances, flush atomically.

    The public lifecycle is driven by :func:`repro.sweep.engine.use_sweep`:
    ``load()`` on scope entry, ``seed_state`` as instances are first
    touched, ``harvest_state`` + ``flush()`` on scope exit.  One store
    object may serve many scopes; each flush writes only what was
    harvested since the previous one.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._data: dict[str, dict] = {}
        self._harvest: dict[str, dict] = {}
        # digests whose on-disk entry a solve disproved: replaced, not merged
        self._dropped: set[str] = set()
        # id -> (instance, digest, scale) for instances touched since the
        # last flush; the strong reference keeps the id from being reused
        self._digests: dict[int, tuple[Any, str, int]] = {}
        #: why the on-disk file was ignored at load time (None = trusted)
        self.ignored_reason: str | None = None
        #: instances seeded from this store (cumulative across scopes) —
        #: a cheap warm-start observability hook for benchmarks
        self.seeded = 0

    # -- file I/O -------------------------------------------------------

    def _read_file(self) -> tuple[dict[str, dict], str | None]:
        """Parse the on-disk file; ``(instances, reason-ignored)``."""
        try:
            with open(self.path, "rb") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return {}, None
        except (OSError, ValueError) as exc:
            return {}, f"unreadable: {exc}"
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            return {}, "not a sweep store"
        if doc.get("version") != _VERSION:
            return {}, f"version {doc.get('version')!r} != {_VERSION}"
        payload = doc.get("payload")
        if not isinstance(payload, dict) or not isinstance(
            payload.get("instances"), dict
        ):
            return {}, "malformed payload"
        if doc.get("sha256") != canonical_sha256(payload):
            return {}, "checksum mismatch"
        return payload["instances"], None

    def load(self) -> None:
        """Read the file into memory; a bad file is ignored, never trusted."""
        self._data, self.ignored_reason = self._read_file()

    def get(self, digest: str) -> dict | None:
        """The loaded entry for ``digest`` (primitive-scale facts), or None."""
        return self._data.get(digest)

    def flush(self) -> None:
        """Merge the harvest since the last flush into the file, atomically.

        Re-reads the file first so concurrent flushers merge instead of
        clobbering each other's facts; the final ``os.replace`` makes the
        outcome last-writer-wins and the file never torn.  A successful
        flush empties the harvest, so a later scope on the same store
        object never rewrites facts this one already flushed.
        """
        self._digests.clear()
        if not self._harvest and not self._dropped:
            return
        on_disk, _ = self._read_file()
        for digest in self._dropped:
            on_disk.pop(digest, None)
        for digest, inst in self._harvest.items():
            on_disk[digest] = _merge_instance(on_disk.get(digest), inst)
        payload = {"instances": on_disk}
        write_json_atomic(
            self.path,
            {
                "format": _FORMAT,
                "version": _VERSION,
                "payload": payload,
                "sha256": canonical_sha256(payload),
            },
        )
        self._data = on_disk
        self._harvest = {}
        self._dropped = set()

    # -- state integration (called by SweepState) -----------------------

    def is_instance(self, obj: Any) -> bool:
        """True for objects the store can content-address (either 2D substrate)."""
        return isinstance(obj, (PrefixSum2D, SparsePrefix2D))

    def _digest_of(self, pref: PrefixSum2D) -> tuple[str, int]:
        cached = self._digests.get(id(pref))
        if cached is None:
            cached = (pref, *instance_digest(pref))
            self._digests[id(pref)] = cached
        return cached[1], cached[2]

    def seed_state(self, state: SweepState, obj: Any) -> None:
        """Install the stored facts for ``obj`` into a live state.

        Every optimum goes through the state's validated ``record_opt``
        (and stripe facts into the memo dict, whose facts the consumer
        re-verifies by construction), rescaled from primitive to the live
        scale.  A fact the validator rejects stops the seeding of this
        instance — facts already installed each passed validation
        individually, so they stay.
        """
        if not self.is_instance(obj):
            return
        digest, c = self._digest_of(obj)
        inst = self._data.get(digest)
        if inst is None:
            return
        self.seeded += 1
        try:
            if list(inst.get("shape", ())) != [obj.n1, obj.n2]:
                return
            for m, B in inst.get("opt", ()):
                state.record_opt(obj, m, int(B) * c)
            self._seed_stripe(state, obj, inst.get("stripe"), c)
        except (SweepInvariantError, KeyError, TypeError, ValueError, AttributeError):
            # semantically bad content behind a valid checksum: stop here
            return

    def _seed_stripe(
        self, state: SweepState, pref: PrefixSum2D, raw: Any, c: int
    ) -> None:
        if not raw:
            return
        memo = state.stripe_memo(pref)
        if memo is None:
            return
        probe = [(int(B) * c, int(p), bool(e)) for B, p, e in raw.get("probe", ())]
        if probe:
            memo[_PROBE_KEY] = probe
        for k, i, entries in raw.get("facts", ()):
            memo[(int(k), int(i))] = [
                (int(B) * c, int(p), bool(e)) for B, p, e in entries
            ]

    def drop(self, obj: Any) -> None:
        """Forget ``obj``'s entry: no later instance is seeded from it, and
        the next flush deletes it before merging."""
        digest, _ = self._digest_of(obj)
        self._dropped.add(digest)
        self._data.pop(digest, None)
        self._harvest.pop(digest, None)

    def harvest_state(self, state: SweepState, obj: Any) -> None:
        """Collect ``obj``'s live facts (rescaled to primitive) for flush."""
        if not self.is_instance(obj):
            return
        digest, c = self._digest_of(obj)
        optima, stripe = state.facts(obj)
        inst: dict[str, Any] = {
            "shape": [obj.n1, obj.n2],
            "opt": [[m, B // c] for m, B in optima.items() if B % c == 0][:_MAX_FACTS],
        }
        if stripe:
            # parts(c·A', B) = parts(A', ⌊B/c⌋): the floor mapping is exact
            # for integer loads, so the primitive fact carries the same
            # count and exactness as the live one
            probe = stripe.get(_PROBE_KEY) or []
            facts = []
            total = 0
            for mk, entries in stripe.items():
                if mk == _PROBE_KEY:
                    continue
                mapped = _dedupe([[int(B) // c, int(p), bool(e)] for B, p, e in entries])
                total += len(mapped)
                if total > _MAX_FACTS:
                    break
                facts.append([mk[0], mk[1], mapped])
            inst["stripe"] = {
                "probe": _dedupe([[int(B) // c, int(p), bool(e)] for B, p, e in probe]),
                "facts": facts,
            }
        self._harvest[digest] = _merge_instance(self._harvest.get(digest), inst)


def _dedupe(entries: list) -> list:
    """Drop duplicate fact triples, preserving first-seen order."""
    seen: dict[tuple, None] = {}
    for e in entries:
        seen.setdefault(tuple(e), None)
    return [list(e) for e in seen][:_MAX_FACTS]


def _merge_instance(base: dict | None, new: dict) -> dict:
    """Merge two primitive-scale instance entries (same digest).

    Optima recorded on both sides with different values are *dropped*
    (one side is wrong — trust neither); stripe fact lists union.
    """
    if not base:
        return new
    if list(base.get("shape", ())) != list(new.get("shape", ())):
        return base
    out: dict[str, Any] = {"shape": base["shape"]}

    optima: dict[int, int | None] = {}
    for src in (base, new):
        for m, B in src.get("opt", ()):
            optima[m] = B if optima.get(m, B) == B else None
    # conflicting optima: trust neither side
    out["opt"] = [[m, B] for m, B in optima.items() if B is not None]

    sb, sn = base.get("stripe"), new.get("stripe")
    if sb or sn:
        sb, sn = sb or {}, sn or {}
        stripe: dict[tuple[int, int], list] = {}
        for src in (sb, sn):
            for k, i, entries in src.get("facts", ()):
                stripe.setdefault((int(k), int(i)), []).extend(entries)
        out["stripe"] = {
            "probe": _dedupe(list(sb.get("probe", ())) + list(sn.get("probe", ()))),
            "facts": [
                [k, i, _dedupe(entries)] for (k, i), entries in stripe.items()
            ][:_MAX_FACTS],
        }
    return out

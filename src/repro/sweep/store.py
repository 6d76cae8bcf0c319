"""Disk-backed, content-addressed persistence for JAG-M-OPT facts.

Facts proved inside one ``use_sweep()`` scope (the m-indexed JAG-M-OPT
optima and the stripe/probe memo) die with the process; this module
persists them so a later process — replaying a snapshot stream, or
partitioning the *same* instance again — starts warm.  The store is keyed
by *content*:

* the instance digest is ``SHA-256`` over the dtype tag, shape, and bytes
  of the **primitive** form ``A' = A // gcd(A)`` of the substrate's
  ``cells_dense()`` (dense or CSR alike), so instances that differ only by
  a positive integer scale factor share one entry;
* facts are stored at primitive scale: ``Lmax(c·A) = c·Lmax(A)`` for every
  fixed rectangle set, and ``parts(c·A', B) = parts(A', ⌊B/c⌋)`` for
  integer loads.

The store reads a live state only through
:meth:`~repro.sweep.state.SweepState.facts` and writes it only through
``record_opt`` and ``stripe_memo``.  An entry is ``{"shape", "opt",
"stripe": {"probe", "facts"}}``.  A -BEST solve records only the winning
orientation's optimum; an entry with no optimum (the loser, the transposed
matrix) keeps only the probe facts its threshold probe reads.

A scope pays only for the facts it adds.  Seeding a memo installs an empty
journal under ``_NEW_KEY`` that ``repro.jagged.m_opt`` appends each later
fact to, and seeded optima come first in the state's table, so the harvest
maps only new facts (no per-fact work at scale 1) and skips an instance
that gained none; an unseeded memo is new as a whole.  With nothing
harvested or dropped, :meth:`SweepStore.flush` does no I/O at all.

File format (version 4): a header line ``{"format", "sha256", "version"}``
then the canonical JSON of ``{"instances": {digest: entry}}``, whose exact
bytes ``sha256`` covers.  A file that fails to parse, fails the checksum,
or has another version (version 3 included) is **ignored, never trusted**,
with no migration.  Every seeded optimum passes the state's validator, and
seeding stops at the first rejected fact.  A lone wrong optimum
contradicts nothing, so it seeds; the solve that disproves it makes the
state forget the instance's seeded facts and re-solve cold, and the next
flush replaces the entry (:meth:`SweepStore.drop`).

A flush re-reads the file, merges the harvest in (conflicting optima are
dropped, stripe facts union) and ``os.replace``-s a temp file over it, so
concurrent flushes end last-writer-wins and never tear the file.
:func:`canonical_sha256` and :func:`write_json_atomic` are the envelope of
the raw store (:mod:`repro.experiments.rawstore`).
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
_VERSION = 4

#: reserved stripe-memo keys of ``repro.jagged.m_opt`` (probe facts, journal):
#: string constants, not imports, so the store needs no algorithm package
_PROBE_KEY = "f"
_NEW_KEY = "n"

#: per-instance cap on the optima, probe facts and stripe facts (whole
#: stripes, the first ones kept): no run grows the store without bound
_MAX_FACTS = 4096

#: leading entries whose gcd :func:`matrix_digest` takes before any full scan
_GCD_PREFIX = 1024


def _canonical(obj: Any) -> bytes:
    """The compact sorted-key JSON encoding of ``obj``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def canonical_sha256(obj: Any) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding of ``obj``."""
    return hashlib.sha256(_canonical(obj)).hexdigest()


def write_json_atomic(path: str, doc: Any) -> None:
    """Write ``doc`` to ``path`` as compact sorted-key JSON, atomically."""
    _write_atomic(path, _canonical(doc))


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in its directory and
    ``os.replace``: a reader sees the old file or the new one, never a torn one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    harvested since the previous one, and nothing at all when that is
    nothing.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._data: dict[str, dict] = {}
        self._harvest: dict[str, dict] = {}
        # digests whose on-disk entry a solve disproved: replaced, not merged
        self._dropped: set[str] = set()
        # id -> (instance, digest, scale, optima seeded, the first ones in
        # the state's table) since the last flush; the reference pins the id
        self._digests: dict[int, tuple[Any, str, int, int]] = {}
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
                head, _, body = fh.read().partition(b"\n")
            doc = json.loads(head)
            if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
                return {}, "not a sweep store"
            if doc.get("version") != _VERSION:
                return {}, f"version {doc.get('version')!r} != {_VERSION}"
            if doc.get("sha256") != hashlib.sha256(body).hexdigest():
                return {}, "checksum mismatch"
            payload = json.loads(body)
        except FileNotFoundError:
            return {}, None
        except (OSError, ValueError) as exc:
            return {}, f"unreadable: {exc}"
        if not isinstance(payload, dict) or not isinstance(payload.get("instances"), dict):
            return {}, "malformed payload"
        return payload["instances"], None

    def load(self) -> None:
        """Read the file into memory; a bad file is ignored, never trusted."""
        self._data, self.ignored_reason = self._read_file()

    def get(self, digest: str) -> dict | None:
        """The loaded entry for ``digest`` (primitive-scale facts), or None."""
        return self._data.get(digest)

    def flush(self) -> None:
        """Merge the harvest since the last flush into the file, atomically.

        No I/O when nothing was harvested or dropped.  Otherwise re-reads
        the file so concurrent flushers merge instead of clobbering, encodes
        the payload once (those bytes are hashed and written), and empties
        the harvest, so a later scope never rewrites facts flushed here.
        """
        self._digests.clear()
        if not self._harvest and not self._dropped:
            return
        on_disk, _ = self._read_file()
        for digest in self._dropped:
            on_disk.pop(digest, None)
        for digest, inst in self._harvest.items():
            on_disk[digest] = _merge_instance(on_disk.get(digest), inst)
        body = _canonical({"instances": on_disk})
        sha = hashlib.sha256(body).hexdigest()
        head = _canonical({"format": _FORMAT, "sha256": sha, "version": _VERSION})
        _write_atomic(self.path, head + b"\n" + body)
        self._data = on_disk
        self._harvest = {}
        self._dropped = set()

    # -- state integration (called by SweepState) -----------------------

    def is_instance(self, obj: Any) -> bool:
        """True for objects the store can content-address (either 2D substrate)."""
        return isinstance(obj, (PrefixSum2D, SparsePrefix2D))

    def _digest_of(self, pref: PrefixSum2D) -> tuple[str, int, int]:
        """``(digest, scale, optima seeded)`` of a touched instance."""
        cached = self._digests.get(id(pref))
        if cached is None:
            cached = self._digests[id(pref)] = (pref, *instance_digest(pref), 0)
        return cached[1:]

    def seed_state(self, state: SweepState, obj: Any) -> None:
        """Install the stored facts for ``obj`` into a live state.

        Optima go through the state's validated ``record_opt``, stripe facts
        into the memo, rescaled to the live scale.  A fact the validator
        rejects stops this instance's seeding; those installed stay.
        """
        if not self.is_instance(obj):
            return
        digest, c, _ = self._digest_of(obj)
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
        finally:
            self._digests[id(obj)] = (obj, digest, c, len(state.facts(obj)[0]))

    def _seed_stripe(self, state: SweepState, pref: PrefixSum2D, raw: Any, c: int) -> None:
        if not raw:
            return
        memo = state.stripe_memo(pref)
        if memo is None:
            return
        probe = [(int(B) * c, int(p), bool(e)) for B, p, e in raw.get("probe", ())]
        if probe:
            memo[_PROBE_KEY] = probe
        for k, i, entries in raw.get("facts", ()):
            memo[(int(k), int(i))] = [(int(B) * c, int(p), bool(e)) for B, p, e in entries]
        # every fact recorded from here on is new: the harvest maps only these
        memo[_NEW_KEY] = []

    def drop(self, obj: Any) -> None:
        """Forget ``obj``'s entry: no later instance is seeded from it, and
        the next flush deletes it before merging."""
        digest, c, _ = self._digest_of(obj)
        self._dropped.add(digest)
        self._data.pop(digest, None)
        self._harvest.pop(digest, None)
        self._digests[id(obj)] = (obj, digest, c, 0)

    def harvest_state(self, state: SweepState, obj: Any) -> None:
        """Collect the facts ``obj`` gained since seeding, at primitive scale.

        New optima follow the seeded ones in the state's table; new stripe
        facts are the memo's journal, or the whole memo when nothing was
        seeded into it.  An instance that gained nothing is not harvested.
        """
        if not self.is_instance(obj):
            return
        digest, c, seeded = self._digest_of(obj)
        optima, memo = state.facts(obj)
        opt = [[m, B // c] for m, B in list(optima.items())[seeded:] if B % c == 0]
        new, stripe = memo.get(_NEW_KEY), memo  # no journal: the whole memo is new
        if new is not None:
            stripe = {}
            for key, rec in new:
                stripe.setdefault(key, []).append(rec)
        probe = stripe.get(_PROBE_KEY, [])
        # an instance with no optimum lost every -BEST solve it took part
        # in: its threshold probes read only the probe facts
        facts = [[*key, e] for key, e in stripe.items() if key != _PROBE_KEY] if optima else []
        if facts:
            facts = _capped(facts, _MAX_FACTS - self._stored_facts(digest, new))
        if c != 1:  # parts(c·A', B) = parts(A', ⌊B/c⌋) for integer loads
            probe = [(B // c, p, x) for B, p, x in probe]
            facts = [[k, i, [(B // c, p, x) for B, p, x in e]] for k, i, e in facts]
        if not (opt or probe or facts):
            return
        inst = {
            "shape": [obj.n1, obj.n2],
            "opt": opt[:_MAX_FACTS],
            "stripe": {"probe": probe[:_MAX_FACTS], "facts": facts},
        }
        self._harvest[digest] = _merge_instance(self._harvest.get(digest), inst)

    def _stored_facts(self, digest: str, journal: list | None) -> int:
        """Stripe facts already on record for a journaled (seeded) memo."""
        stored = self._data.get(digest) if journal is not None else None
        return sum(len(e) for _, _, e in stored["stripe"].get("facts", ())) if stored else 0


def _capped(facts: list, room: int) -> list:
    """The leading stripes of ``facts`` holding at most ``room`` fact triples."""
    total = 0
    for n, (_, _, entries) in enumerate(facts):
        total += len(entries)
        if total > room:
            return facts[:n]
    return facts


def _dedupe(entries: list) -> list:
    """Drop duplicate fact triples, preserving first-seen order."""
    return list(dict.fromkeys(map(tuple, entries)))


def _merge_instance(base: dict | None, new: dict) -> dict:
    """Merge two primitive-scale instance entries (same digest).

    Optima recorded on both sides with different values are *dropped*
    (one side is wrong — trust neither); stripe fact lists union, and only
    the stripes ``new`` touches are deduplicated.
    """
    if not base:
        return new
    if list(base.get("shape", ())) != list(new.get("shape", ())):
        return base
    optima: dict[int, int | None] = {}
    for src in (base, new):
        for m, B in src.get("opt", ()):
            optima[m] = B if optima.get(m, B) == B else None
    sb, sn = base.get("stripe") or {}, new.get("stripe") or {}
    stripe = {(k, i): entries for k, i, entries in sb.get("facts", ())}
    for k, i, entries in sn.get("facts", ()):
        stripe[(k, i)] = _dedupe([*stripe.get((k, i), ()), *entries])
    return {
        "shape": base["shape"],
        # conflicting optima: trust neither side
        "opt": [[m, B] for m, B in optima.items() if B is not None][:_MAX_FACTS],
        "stripe": {
            "probe": _dedupe([*sb.get("probe", ()), *sn.get("probe", ())])[:_MAX_FACTS],
            "facts": _capped([[k, i, e] for (k, i), e in stripe.items()], _MAX_FACTS),
        },
    }

"""Disk-backed, content-addressed raw-result cache for the figure farm.

Every figure/extension series is a set of *cells* — one solved value per
``(instance, algorithm, solver kwargs, m)`` point.  This module persists
each completed cell as one small JSON file so that ``repro-experiments``
is

* **incremental** — a cell whose key already exists on disk is a cache
  hit and never recomputed (``make figures`` only solves what changed);
* **interruptible/resumable** — cells are flushed atomically the moment
  they complete (``tempfile.mkstemp`` + ``os.replace``, the sweep store's
  pattern), so a killed ``--jobs N`` run resumes where it left off and
  the final CSVs are byte-identical to an uninterrupted run;
* **safe** — a file that is truncated, tampered with, version-skewed, or
  keyed differently than its name promises is ignored and recomputed
  cold; a corrupt store can cost time, never poison a figure.

Keying follows the sweep store (PR 5): the instance coordinate is the
SHA-256 of the gcd-primitive load array (:func:`repro.sweep.store.matrix_digest`)
suffixed with the live scale, and solver kwargs are canonicalized with
:func:`repro.sweep.state.canonical_scope`.  The full cell key is
``(schema version, profile, instance digest, algorithm, scope, m, metric)``
— ``metric`` names the value schema (``imbalance``, ``lmax_lavg``,
``runtime_s``, ``comm_volume``, ``migration_series``), and ``profile``
keeps differently-scaled runs of the same figure apart even where their
instances coincide.

Workers never touch the store: the parent resolves hits, dispatches only
the misses, and flushes results as they arrive — the same parent-only
discipline the sweep store uses, so concurrent figure runs on one store
directory end last-writer-wins with identical content.

The store is selected with ``repro-experiments --raw-dir`` or the
``$REPRO_RAW_STORE`` knob (declared in :data:`repro.config.ENV_VARS`),
or scoped with :func:`use_raw_store`.  Without a store every cell is
simply computed — the figure functions are unchanged semantically and
bit-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from ..config import env_str
from ..sweep.state import Scope, canonical_scope
from ..sweep.store import instance_digest, matrix_digest

__all__ = [
    "RawStore",
    "MISS",
    "InterruptingRawStore",
    "SimulatedInterrupt",
    "use_raw_store",
    "current_raw_store",
    "set_default_raw_store",
    "digest_prefix",
    "digest_matrix",
    "combine_digests",
]

_FORMAT = "repro-raw-cell"
_VERSION = 1

#: result-schema version — part of every key; bump when the meaning or
#: shape of any cached metric value changes, so stale stores miss cleanly
SCHEMA = 1

MISS = object()


# ----------------------------------------------------------------------
# instance digests
# ----------------------------------------------------------------------
def digest_prefix(pref) -> str:
    """Content digest of a prefix's load matrix, scale included.

    The sweep store shares facts across positive-integer scale multiples;
    raw cells store *values* (loads, runtimes), which scale, so the live
    scale is part of the coordinate.
    """
    dig, scale = instance_digest(pref)
    return f"{dig}:{scale}"


def digest_matrix(A) -> str:
    """Content digest of a raw load array (any dimensionality)."""
    dig, scale = matrix_digest(A)
    return f"{dig}:{scale}"


def combine_digests(parts: Iterable[str]) -> str:
    """One digest for a *series* of instances (e.g. a snapshot stream)."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"|")
    return h.hexdigest()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class RawStore:
    """One raw-result directory: per-cell JSON files, atomic flush.

    ``force=True`` skips every lookup (all cells recompute cold) but still
    writes the fresh results back — ``repro-experiments --force``.
    """

    def __init__(self, root: str | os.PathLike, *, force: bool = False) -> None:
        self.root = os.fspath(root)
        self.force = force
        self.hits = 0
        self.misses = 0
        self.invalid = 0

    # -- keys and paths -------------------------------------------------

    @staticmethod
    def make_key(
        *,
        profile: str,
        digest: str,
        algo: str,
        m: int,
        scope: Scope = (),
        metric: str = "imbalance",
    ) -> dict:
        """The canonical cell key (a plain sorted-serializable dict)."""
        return {
            "schema": SCHEMA,
            "profile": profile,
            "digest": digest,
            "algo": algo,
            "m": int(m),
            "scope": [list(item) for item in scope],
            "metric": metric,
        }

    def _path(self, key: dict) -> str:
        blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
        tag = hashlib.sha256(blob.encode()).hexdigest()[:24]
        name = f"{key['algo']}-m{key['m']}-{key['metric']}-{tag}.json"
        return os.path.join(self.root, key["profile"], name)

    @staticmethod
    def _checksum(key: dict, value: Any) -> str:
        blob = json.dumps(
            {"key": key, "value": value}, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- cell I/O -------------------------------------------------------

    def load(self, key: dict) -> Any:
        """The cached value for ``key``, or the :data:`MISS` sentinel.

        Counts a hit or a miss; any integrity failure (unreadable file,
        wrong format/version, checksum mismatch, key mismatch under a
        colliding name) counts ``invalid`` *and* a miss — the caller
        recomputes cold and the next :meth:`store` heals the file.
        """
        if self.force:
            self.misses += 1
            return MISS
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (OSError, ValueError):
            self.invalid += 1
            self.misses += 1
            return MISS
        if (
            not isinstance(doc, dict)
            or doc.get("format") != _FORMAT
            or doc.get("version") != _VERSION
            or "value" not in doc
            or doc.get("key") != key
            or doc.get("sha256") != self._checksum(key, doc["value"])
        ):
            self.invalid += 1
            self.misses += 1
            return MISS
        self.hits += 1
        return doc["value"]

    def store(self, key: dict, value: Any) -> None:
        """Atomically write one completed cell (mkstemp + ``os.replace``)."""
        path = self._path(key)
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "key": key,
            "value": value,
            "sha256": self._checksum(key, value),
        }
        d = os.path.dirname(path)
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def resolve(self, key: dict, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing (and flushing) on a miss."""
        value = self.load(key)
        if value is not MISS:
            return value
        value = compute()
        self.store(key, value)
        return value

    # -- reporting ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "invalid": self.invalid}


class SimulatedInterrupt(RuntimeError):
    """Raised by :class:`InterruptingRawStore` when its write budget runs out."""


class InterruptingRawStore(RawStore):
    """Kill-and-resume harness: dies after ``abort_after`` cell writes.

    Used by ``tests/test_rawstore.py`` to emulate a run killed mid-figure:
    every write up to the budget lands atomically on disk, then
    :class:`SimulatedInterrupt` fires; a fresh run over the same directory
    must resume from the flushed cells and produce byte-identical CSVs.
    """

    def __init__(self, root, *, abort_after: int, force: bool = False) -> None:
        super().__init__(root, force=force)
        self.abort_after = abort_after
        self.writes = 0

    def store(self, key: dict, value: Any) -> None:
        if self.writes >= self.abort_after:
            raise SimulatedInterrupt(f"aborting after {self.abort_after} cell writes")
        super().store(key, value)
        self.writes += 1


# ----------------------------------------------------------------------
# ambient store selection
# ----------------------------------------------------------------------
_STACK: list[RawStore | None] = []
_DEFAULT: RawStore | None = None
_ENV_LOADED = False


def set_default_raw_store(root: str | os.PathLike | None, *, force: bool = False) -> None:
    """Set (or clear, with ``None``) the process-default raw store."""
    global _DEFAULT, _ENV_LOADED
    _DEFAULT = None if root is None else RawStore(root, force=force)
    _ENV_LOADED = True  # an explicit choice overrides the env default


def current_raw_store() -> RawStore | None:
    """The innermost :func:`use_raw_store` scope, else the process default.

    The process default is initialized lazily from ``$REPRO_RAW_STORE``
    (empty = no store: every cell computes).
    """
    if _STACK:
        return _STACK[-1]
    global _DEFAULT, _ENV_LOADED
    if not _ENV_LOADED:
        _ENV_LOADED = True
        path = env_str("REPRO_RAW_STORE")
        if path:
            _DEFAULT = RawStore(path)
    return _DEFAULT


@contextmanager
def use_raw_store(
    root: str | os.PathLike | None, *, force: bool = False, store: RawStore | None = None
) -> Iterator[RawStore | None]:
    """Scope a raw store (or ``None`` to disable caching inside the scope).

    Pass ``store=`` to scope a pre-built store object (e.g. an
    :class:`InterruptingRawStore`); otherwise one is built from ``root``.
    """
    if store is None and root is not None:
        store = RawStore(root, force=force)
    _STACK.append(store)
    try:
        yield store
    finally:
        _STACK.pop()


# ----------------------------------------------------------------------
# the figure-side helper
# ----------------------------------------------------------------------
def cell(
    profile: str,
    digest: str,
    algo: str,
    m: int,
    compute: Callable[[], Any],
    *,
    metric: str = "imbalance",
    **kw: Any,
) -> Any:
    """Resolve one figure cell through the ambient store (compute if none).

    ``kw`` is the solver-kwargs scope, canonicalized exactly like the sweep
    state does, so cells keyed here and facts keyed there agree on what
    "same solver configuration" means.
    """
    store = current_raw_store()
    if store is None:
        return compute()
    key = RawStore.make_key(
        profile=profile,
        digest=digest,
        algo=algo,
        m=m,
        scope=canonical_scope(kw),
        metric=metric,
    )
    return store.resolve(key, compute)

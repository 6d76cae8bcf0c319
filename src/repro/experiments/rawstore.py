"""Disk-backed, content-addressed raw-result cache for the figure farm.

Every figure/extension series is a set of *cells* — one solved value per
``(instance, algorithm, solver kwargs, m)`` point.  This module persists
each completed cell as one small JSON file so that ``repro-experiments``
is

* **incremental** — a cell whose key already exists on disk is a cache
  hit and never recomputed (``make figures`` only solves what changed);
* **interruptible/resumable** — cells are flushed atomically the moment
  they complete (:func:`repro.sweep.store.write_json_atomic`, the envelope
  the sweep store uses), so a killed run resumes where it left off and
  the final CSVs are byte-identical to an uninterrupted run;
* **safe** — a file that is truncated, tampered with, version-skewed, or
  keyed differently than its name promises is ignored and recomputed
  cold; a corrupt store can cost time, never poison a figure.

Keying follows the sweep store: the instance coordinate is the SHA-256 of
the gcd-primitive load array (:func:`repro.sweep.store.matrix_digest` of
the validated load matrix itself, so a figure digests an instance without
building its substrate) suffixed with the live scale, and solver kwargs
are canonicalized with :func:`canonical_scope`.  The full cell key is
``(schema version, profile, instance digest, algorithm, scope, m, metric)``
— ``metric`` names the value schema (``imbalance``, ``lmax_lavg``,
``runtime_s``, ``comm_volume``, ``migration_series``), and ``profile``
keeps differently-scaled runs of the same figure apart even where their
instances coincide.

Every figure resolves its cells one at a time through :func:`cell`, which
flushes each result the moment it is computed, so concurrent figure runs
on one store directory end last-writer-wins with identical content.

The store is selected with ``repro-experiments --raw-dir``, which scopes
it with :func:`use_raw_store`.  Without a store every cell is simply
computed — the figure functions are unchanged semantically and
bit-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..sweep.store import (
    canonical_sha256,
    matrix_digest,
    write_json_atomic,
)

__all__ = [
    "RawStore",
    "MISS",
    "canonical_scope",
    "use_raw_store",
    "current_raw_store",
    "digest_matrix",
    "combine_digests",
]

_FORMAT = "repro-raw-cell"
_VERSION = 1

#: result-schema version — part of every key; bump when the meaning or
#: shape of any cached metric value changes, so stale stores miss cleanly
SCHEMA = 1

MISS = object()

#: a kwargs scope: canonicalized, hashable, JSON-round-trippable
Scope = tuple[tuple[str, str], ...]


def _canon_value(v: Any) -> str:
    """Canonical string form of one kwargs value (type-tagged)."""
    if isinstance(v, bool):
        return f"bool:{v}"
    if isinstance(v, numbers.Integral):
        return f"int:{int(v)}"
    if isinstance(v, str):
        return f"str:{v}"
    if isinstance(v, float):
        return f"float:{v!r}"
    return f"repr:{v!r}"


def canonical_scope(kw: Mapping[str, Any] | None) -> Scope:
    """Canonicalize solver kwargs into a cell-key scope.

    ``None`` and ``{}`` are the unconstrained scope; ``None``-valued
    entries are dropped (an explicit default); remaining items are sorted
    by name and values are reduced to type-tagged strings so the scope is
    hashable, order-independent and survives a JSON round trip unchanged.
    """
    if not kw:
        return ()
    if isinstance(kw, tuple):
        # already a canonical scope
        return kw
    items = [(str(k), _canon_value(v)) for k, v in kw.items() if v is not None]
    items.sort()
    return tuple(items)


# ----------------------------------------------------------------------
# instance digests
# ----------------------------------------------------------------------
def digest_matrix(A) -> str:
    """Content digest of a raw load array (any dimensionality), scale included.

    The sweep store shares facts across positive-integer scale multiples;
    raw cells store *values* (loads, runtimes), which scale, so the live
    scale is part of the coordinate.
    """
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
        tag = canonical_sha256(key)[:24]
        name = f"{key['algo']}-m{key['m']}-{key['metric']}-{tag}.json"
        return os.path.join(self.root, key["profile"], name)

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
            or doc.get("sha256") != canonical_sha256({"key": key, "value": doc["value"]})
        ):
            self.invalid += 1
            self.misses += 1
            return MISS
        self.hits += 1
        return doc["value"]

    def store(self, key: dict, value: Any) -> None:
        """Atomically write one completed cell (the sweep store's envelope)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(
            path,
            {
                "format": _FORMAT,
                "version": _VERSION,
                "key": key,
                "value": value,
                "sha256": canonical_sha256({"key": key, "value": value}),
            },
        )

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


# ----------------------------------------------------------------------
# ambient store selection
# ----------------------------------------------------------------------
_STACK: list[RawStore | None] = []


def current_raw_store() -> RawStore | None:
    """The innermost :func:`use_raw_store` scope's store; ``None`` outside any scope."""
    return _STACK[-1] if _STACK else None


@contextmanager
def use_raw_store(
    root: str | os.PathLike | None, *, force: bool = False, store: RawStore | None = None
) -> Iterator[RawStore | None]:
    """Scope a raw store (or ``None`` to disable caching inside the scope).

    Pass ``store=`` to scope a pre-built store object; otherwise one is
    built from ``root``.
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

    ``kw`` is the solver-kwargs scope, canonicalized by
    :func:`canonical_scope`.
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

"""Disk-backed, content-addressed persistence for sweep facts.

Facts proved inside one ``use_sweep()`` scope (monotone bottleneck bounds,
grid dominance facts, heuristic witnesses, stripe facts, hierarchical node
decisions) die with the process; this module persists them so a later
process — rerunning a figure, or partitioning the *same* physical instance
again — starts warm.  Mirroring how production partitioners amortize
repartitioning cost across timesteps, the store is keyed by *content*:

* the instance digest is ``SHA-256`` over the load matrix's dtype tag,
  shape, and the bytes of its **primitive** form ``A' = A // g`` where
  ``g = gcd(A)`` — so instances that differ only by a positive integer
  scale factor share one entry;
* facts are stored at primitive scale and rescaled on the way in and out:
  ``Lmax(c·A) = c·Lmax(A)`` for every fixed rectangle set, so optima and
  feasible witnesses multiply by the live scale exactly.  Stripe-count
  facts transfer through ``parts(c·A', B) = parts(A', B // c)`` (integer
  loads: ``c·l <= B  ⟺  l <= ⌊B/c⌋``).  RB node decisions are invariant
  under load scaling (integer cut targets use ``(s·a) // (s·b) = a // b``
  and scores scale uniformly), so they are stored scale-free; RELAXED node
  decisions involve float rounding and an absolute tie epsilon, so they
  are stored *per scale* and reused only at a matching scale;
* within one entry, facts carry their canonicalized solver-kwargs scope
  (:func:`repro.sweep.state.canonical_scope`) — the same keying the
  in-memory state uses.

File format: one JSON document ``{"format", "version", "payload",
"sha256"}`` where ``sha256`` covers the canonical (sorted, compact)
serialization of ``payload``.  A file that fails to parse, fails the
checksum, or carries another version is **ignored, never trusted** — and
every seeded fact still passes the in-memory validators, so even a
checksum-valid but semantically poisoned store cannot install a
contradiction (seeding stops at the first rejected fact).

Flushing is a read-merge-write: the current file is re-read, the session's
harvest is merged in (upper bounds keep the minimum, conflicting optima
are dropped entirely), and the result is written to a temp file in the
same directory and ``os.replace``-d over the target — atomic on POSIX, so
concurrent flushes end last-writer-wins and never corrupt the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

import numpy as np

from ..core.prefix import PrefixSum2D
from ..core.sparse import SparsePrefix2D
from .state import Scope, SweepInvariantError, SweepState

__all__ = ["SweepStore", "instance_digest", "matrix_digest"]

_FORMAT = "repro-sweep-store"
_VERSION = 1

#: reserved stripe-memo key for whole-matrix probe facts — must match
#: ``repro.jagged.m_opt._PROBE_KEY`` (a deliberate string constant, not an
#: import: the store stays independent of the algorithm packages)
_PROBE_KEY = "f"

#: per-instance caps: entries beyond these are dropped at harvest time
#: (deterministically, keeping the first ones) so one pathological run
#: cannot grow the store without bound
_MAX_TABLE = 512
_MAX_FACTS = 4096


def matrix_digest(A: np.ndarray) -> tuple[str, int]:
    """``(digest, scale)`` of an integer load array (any dimensionality).

    ``scale`` is the gcd of all loads (1 for the zero array); the digest
    hashes dtype, shape, and the primitive array ``A // scale``, so any
    positive-integer multiple of the same primitive maps to the same
    entry.  Shape is part of the hashed material: arrays with identical
    bytes but different shapes get different digests.
    """
    A = np.asarray(A, dtype=np.int64)
    scale = int(np.gcd.reduce(A, axis=None)) if A.size else 1
    if scale <= 0:
        scale = 1
    prim = A // scale
    h = hashlib.sha256()
    h.update(b"int64|")
    h.update(repr(tuple(prim.shape)).encode())
    h.update(b"|")
    h.update(np.ascontiguousarray(prim, dtype=np.int64).tobytes())
    return h.hexdigest(), scale


def instance_digest(pref: PrefixSum2D) -> tuple[str, int]:
    """``(digest, scale)`` of a prefix's underlying load matrix.

    Recovers the load matrix from the inclusive prefix grid and hashes its
    primitive form via :func:`matrix_digest`.  A sparse substrate digests
    itself (streamed dense row blocks, never the full array) to the *same*
    value — warm facts transfer across substrates for one logical matrix.
    """
    digest = getattr(pref, "matrix_digest", None)
    if digest is not None:
        return digest()
    return matrix_digest(np.diff(np.diff(pref.G, axis=0), axis=1))


def _scope_to_json(scope: Scope) -> list:
    return [list(item) for item in scope]


def _scope_from_json(raw: Any) -> Scope:
    return tuple((str(k), str(v)) for k, v in raw)


class SweepStore:
    """One store file: load once, seed/harvest instances, flush atomically.

    The public lifecycle is driven by :func:`repro.sweep.engine.use_sweep`:
    ``load()`` on scope entry, ``seed_state`` as instances are first
    touched, ``harvest_state`` + ``flush()`` on scope exit.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._data: dict[str, dict] = {}
        self._harvest: dict[str, dict] = {}
        #: why the on-disk file was ignored at load time (None = trusted)
        self.ignored_reason: str | None = None
        #: instances seeded from this store (cumulative across scopes) —
        #: a cheap warm-start observability hook for benchmarks
        self.seeded = 0

    # -- file I/O -------------------------------------------------------

    @staticmethod
    def _checksum(payload: dict) -> str:
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

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
        if doc.get("sha256") != self._checksum(payload):
            return {}, "checksum mismatch"
        return payload["instances"], None

    def load(self) -> None:
        """Read the file into memory; a bad file is ignored, never trusted."""
        self._data, self.ignored_reason = self._read_file()

    def get(self, digest: str) -> dict | None:
        """The loaded entry for ``digest`` (primitive-scale facts), or None."""
        return self._data.get(digest)

    def flush(self) -> None:
        """Merge this session's harvest into the file, atomically.

        Re-reads the file first so concurrent flushers merge instead of
        clobbering each other's facts; the final ``os.replace`` makes the
        outcome last-writer-wins and the file never torn.
        """
        if not self._harvest:
            return
        on_disk, _ = self._read_file()
        for digest, inst in self._harvest.items():
            prev = on_disk.get(digest)
            on_disk[digest] = _merge_instance(prev, inst) if prev else inst
        payload = {"instances": on_disk}
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "payload": payload,
            "sha256": self._checksum(payload),
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(prefix=".sweep-store-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._data = on_disk

    # -- state integration (called by SweepState) -----------------------

    def is_instance(self, obj: Any) -> bool:
        """True for objects the store can content-address (either 2D substrate)."""
        return isinstance(obj, (PrefixSum2D, SparsePrefix2D))

    def _digest_of(self, state: SweepState, pref: PrefixSum2D) -> tuple[str, int]:
        cached = state._digests.get(id(pref))
        if cached is None:
            cached = instance_digest(pref)
            state._digests[id(pref)] = cached
        return cached

    def seed_state(self, state: SweepState, obj: Any) -> None:
        """Install the stored facts for ``obj`` into a live state.

        Every fact goes through the state's validated ``record_*`` API (or
        the memo dicts, whose facts the consumers re-verify by
        construction), rescaled from primitive to the live scale.  A fact
        the validators reject stops the seeding of this instance — facts
        already installed each passed validation individually, so they
        stay.
        """
        if not self.is_instance(obj):
            return
        digest, c = self._digest_of(state, obj)
        inst = self._data.get(digest)
        if inst is None:
            return
        self.seeded += 1
        try:
            if list(inst.get("shape", ())) != [obj.n1, obj.n2]:
                return
            for cls, raw_scope, opt, ub in inst.get("mono", ()):
                scope = _scope_from_json(raw_scope)
                for ms, B in opt.items():
                    state.record_mono_opt(obj, cls, int(ms), int(B) * c, kw=scope)
                for ms, B in ub.items():
                    state.record_mono_ub(obj, cls, int(ms), int(B) * c, kw=scope)
            for raw_scope, opt, ub in inst.get("grid", ()):
                scope = _scope_from_json(raw_scope)
                for P, Q, B in opt:
                    state.record_grid_opt(obj, int(P), int(Q), int(B) * c, kw=scope)
                for P, Q, B in ub:
                    state.record_grid_ub(obj, int(P), int(Q), int(B) * c, kw=scope)
            self._seed_stripe(state, obj, inst.get("stripe"), c)
            self._seed_rb(state, obj, inst.get("rb"), c)
            self._seed_relaxed(state, obj, inst.get("relaxed"), c)
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

    def _seed_rb(self, state: SweepState, pref: PrefixSum2D, raw: Any, c: int) -> None:
        if not raw:
            return
        memo = state.hier_memo(pref, "rb")
        if memo is None:
            return
        for key, entry in raw:
            r0, r1, c0, c1, dim, g1, g2 = (int(x) for x in key)
            memo[(r0, r1, c0, c1, dim, g1, g2)] = (
                None
                if entry is None
                else (int(entry[0]), int(entry[1]) * c, int(entry[2]))
            )

    def _seed_relaxed(
        self, state: SweepState, pref: PrefixSum2D, raw: Any, c: int
    ) -> None:
        if not raw:
            return
        facts = raw.get(str(c))
        if not facts:
            return  # float decisions only transfer at a matching scale
        memo = state.hier_memo(pref, "relaxed")
        if memo is None:
            return
        for key, entry in facts:
            r0, r1, c0, c1, dim, m = (int(x) for x in key)
            memo[(r0, r1, c0, c1, dim, m)] = (
                None
                if entry is None
                else (int(entry[0]), int(entry[1]), float(entry[2]))
            )

    def harvest_state(self, state: SweepState, obj: Any) -> None:
        """Collect ``obj``'s live facts (rescaled to primitive) for flush."""
        if not self.is_instance(obj):
            return
        digest, c = self._digest_of(state, obj)
        key = id(obj)
        inst: dict[str, Any] = {"shape": [obj.n1, obj.n2]}

        mono = []
        for (k2, cls, scope), table in state._mono_opt.items():
            if k2 != key:
                continue
            mono.append([cls, scope, dict(table), {}])
        for (k2, cls, scope), table in state._mono_ub.items():
            if k2 != key:
                continue
            for row in mono:
                if row[0] == cls and row[1] == scope:
                    row[3] = dict(table)
                    break
            else:
                mono.append([cls, scope, {}, dict(table)])
        inst["mono"] = [
            [
                cls,
                _scope_to_json(scope),
                {str(m): B // c for m, B in opt.items() if B % c == 0},
                {str(m): B // c for m, B in ub.items() if B % c == 0},
            ]
            for cls, scope, opt, ub in mono[:_MAX_TABLE]
        ]

        grid = {}
        for (k2, scope), table in state._grid_opt.items():
            if k2 == key:
                grid[scope] = [dict(table), {}]
        for (k2, scope), table in state._grid_ub.items():
            if k2 == key:
                grid.setdefault(scope, [{}, {}])[1] = dict(table)
        inst["grid"] = [
            [
                _scope_to_json(scope),
                [[P, Q, B // c] for (P, Q), B in opt.items() if B % c == 0][
                    :_MAX_TABLE
                ],
                [[P, Q, B // c] for (P, Q), B in ub.items() if B % c == 0][
                    :_MAX_TABLE
                ],
            ]
            for scope, (opt, ub) in grid.items()
        ]

        stripe = state._memos.get((key, "stripe"))
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

        rb = state._memos.get((key, "rb"))
        if rb:
            out = []
            for mk, entry in rb.items():
                if entry is not None and entry[1] % c != 0:
                    continue  # defensive: scores of a scaled matrix divide by c
                out.append(
                    [
                        list(mk),
                        None
                        if entry is None
                        else [int(entry[0]), int(entry[1]) // c, int(entry[2])],
                    ]
                )
                if len(out) >= _MAX_FACTS:
                    break
            inst["rb"] = out

        relaxed = state._memos.get((key, "relaxed"))
        if relaxed:
            out = []
            for mk, entry in relaxed.items():
                out.append(
                    [
                        list(mk),
                        None
                        if entry is None
                        else [int(entry[0]), int(entry[1]), float(entry[2])],
                    ]
                )
                if len(out) >= _MAX_FACTS:
                    break
            inst["relaxed"] = {str(c): out}

        prev = self._harvest.get(digest)
        self._harvest[digest] = _merge_instance(prev, inst) if prev else inst


def _dedupe(entries: list) -> list:
    """Drop duplicate fact triples, preserving first-seen order."""
    seen: dict[tuple, None] = {}
    for e in entries:
        seen.setdefault(tuple(e), None)
    return [list(e) for e in seen][:_MAX_FACTS]


def _merge_instance(base: dict | None, new: dict) -> dict:
    """Merge two primitive-scale instance entries (same digest).

    Upper bounds keep the minimum; optima recorded on both sides with
    different values are *dropped* (one side is wrong — trust neither);
    memo fact lists union with the base side winning duplicates.
    """
    if base is None:
        return new
    if list(base.get("shape", ())) != list(new.get("shape", ())):
        return base
    out: dict[str, Any] = {"shape": base["shape"]}

    mono: dict[tuple, list] = {}
    for src in (base, new):
        for cls, scope, opt, ub in src.get("mono", ()):
            k = (cls, json.dumps(scope))
            row = mono.setdefault(k, [cls, scope, {}, {}])
            for m, B in opt.items():
                prev = row[2].get(m)
                if prev is None:
                    row[2][m] = B
                elif prev != B:
                    row[2][m] = None  # conflict marker
            for m, B in ub.items():
                prev = row[3].get(m)
                row[3][m] = B if prev is None else min(prev, B)
    out["mono"] = [
        [cls, scope, {m: B for m, B in opt.items() if B is not None}, ub]
        for cls, scope, opt, ub in mono.values()
    ]

    grid: dict[str, list] = {}
    for src in (base, new):
        for scope, opt, ub in src.get("grid", ()):
            k = json.dumps(scope)
            row = grid.setdefault(k, [scope, {}, {}])
            for P, Q, B in opt:
                prev = row[1].get((P, Q))
                if prev is None:
                    row[1][(P, Q)] = B
                elif prev != B:
                    row[1][(P, Q)] = None
            for P, Q, B in ub:
                prev = row[2].get((P, Q))
                row[2][(P, Q)] = B if prev is None else min(prev, B)
    out["grid"] = [
        [
            scope,
            [[P, Q, B] for (P, Q), B in opt.items() if B is not None],
            [[P, Q, B] for (P, Q), B in ub.items()],
        ]
        for scope, opt, ub in grid.values()
    ]

    sb, sn = base.get("stripe"), new.get("stripe")
    if sb or sn:
        sb, sn = sb or {}, sn or {}
        facts: dict[tuple[int, int], list] = {}
        for src in (sb, sn):
            for k, i, entries in src.get("facts", ()):
                cur = facts.setdefault((int(k), int(i)), [])
                cur.extend(entries)
        out["stripe"] = {
            "probe": _dedupe(list(sb.get("probe", ())) + list(sn.get("probe", ()))),
            "facts": [
                [k, i, _dedupe(entries)] for (k, i), entries in facts.items()
            ][:_MAX_FACTS],
        }

    for fam in ("rb",):
        fb, fn = base.get(fam), new.get(fam)
        if fb or fn:
            merged: dict[tuple, Any] = {}
            for src in (fn or (), fb or ()):  # base last: base wins
                for mk, entry in src:
                    merged[tuple(mk)] = entry
            out[fam] = [[list(mk), entry] for mk, entry in merged.items()][:_MAX_FACTS]

    rb_, rn = base.get("relaxed"), new.get("relaxed")
    if rb_ or rn:
        scales: dict[str, dict] = {}
        for src in (rn or {}, rb_ or {}):  # base last: base wins
            for scale, factlist in src.items():
                merged = scales.setdefault(scale, {})
                for mk, entry in factlist:
                    merged[tuple(mk)] = entry
        out["relaxed"] = {
            scale: [[list(mk), entry] for mk, entry in merged.items()][:_MAX_FACTS]
            for scale, merged in scales.items()
        }
    return out

"""Content-addressed on-disk store for sweep results.

The sweep service (:mod:`repro.sim.sweep_service`) is incremental
because of this module: every grid point's result is written under a
key derived from the *values* that determine it, so resubmitting an
identical sweep costs zero simulations and a superset sweep computes
only the delta (the policy-search loop behind the paper's Table 6 and
Fig. 7 resubmits heavily overlapping grids).

Keying — the fingerprint contract
---------------------------------
:func:`task_store_key` folds together, via
:func:`repro.accounting.pricing.fingerprint_digest`:

* :data:`STORE_FORMAT` — the store's payload format version, so a
  layout change invalidates every old entry instead of misreading it;
* the :class:`~repro.sim.sweep.SweepTask` identity fields
  ``(scenario, policy, method, scale, seed)`` — the grid coordinates;
* a :data:`~repro.accounting.pricing.PricingFingerprint` — the value
  identity of the scenario's pricing catalogue
  (:meth:`QuoteTable.fingerprint <repro.accounting.pricing.QuoteTable.fingerprint>`:
  method scalars, machine constants, carbon-trace digest).

The simulator is deterministic given those inputs, so equal keys imply
bit-identical results *within one code version*; the store directory is
a cache, never a source of truth, and deleting it is always safe.

Durability contract
-------------------
Writes are atomic (tempfile in the store root + ``os.replace``).  An
entry is one flat file: an 8-byte prefix (header length, CRC-32 of the
header), a JSON header, then the
:data:`~repro.accounting.pricing.OUTCOME_FIELDS` columns back to back
as raw little-endian bytes (layout: ``docs/architecture/sweep-service.md``).
A read is one ``read()``; each column is a read-only ``np.frombuffer``
view into those bytes, and nothing is ever unpickled.  Any of these
turns an entry into a miss: a short or truncated file, a header CRC
mismatch, a header that is not a JSON object, a ``format`` other than
:data:`STORE_FORMAT`, a column list other than this version's, a body
length other than ``rows`` times the row width, or a body CRC-32
mismatch.  A miss deletes the entry, ticks the ``corrupt`` counter and
the caller recomputes, so a crash can never poison the store, only
shrink it.

Bounding
--------
``max_bytes`` puts an LRU byte budget on the directory: every hit bumps
the entry's mtime, and after each write the oldest entries are evicted
until the total fits (the most recently touched entry always survives).
Stats (hits/misses/evictions/corrupt/bytes) surface through
:meth:`ResultStore.stats` the same way ``QuoteTableCache`` stats do.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.accounting.pricing import (
    OUTCOME_FIELDS,
    OutcomeTable,
    PricingFingerprint,
    fingerprint_digest,
)
from repro.sim.engine import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sim.sweep import SweepTask

#: Payload format version, folded into every key: bump it whenever the
#: on-disk layout changes and old entries become unreadable misses
#: instead of decode errors.
STORE_FORMAT = "repro-result-store-v2"

#: Entry prefix: header byte length, CRC-32 of the header bytes.
_PREFIX = struct.Struct("<II")
#: The header is space-padded so the body starts on this boundary,
#: which (with the widest columns first) keeps every column view
#: aligned.
_ALIGN = 8
#: Body layout: the outcome columns, widest first, little-endian.
_LAYOUT: tuple[tuple[str, np.dtype[Any]], ...] = tuple(
    sorted(
        (
            (name, np.dtype(dtype).newbyteorder("<"))
            for name, dtype in OUTCOME_FIELDS
        ),
        key=lambda column: -column[1].itemsize,
    )
)
#: ``_LAYOUT`` as the header's JSON ``columns`` field.
_COLUMNS = [[name, dtype.str] for name, dtype in _LAYOUT]
_ROW_BYTES = sum(dtype.itemsize for _, dtype in _LAYOUT)


def task_store_key(
    task: SweepTask, pricing_fingerprint: PricingFingerprint
) -> str:
    """The content address of one grid point's result.

    Everything that determines the simulation output is folded in; see
    the module docstring for the contract.
    """
    return fingerprint_digest(
        STORE_FORMAT,
        task.scenario,
        task.policy,
        task.method,
        task.scale,
        task.seed,
        pricing_fingerprint,
    )


@dataclass(frozen=True, slots=True)
class ResultStoreStats:
    """Point-in-time store counters (mirrors ``QuoteTableCacheStats``)."""

    entries: int
    bytes: int
    max_bytes: int | None
    hits: int
    misses: int
    evictions: int
    corrupt: int

    def as_dict(self) -> dict[str, int | None]:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


class ResultStore:
    """Content-addressed, byte-bounded result cache on disk.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Entries are sharded as
        ``root/<key[:2]>/<key>.bin``.
    max_bytes:
        LRU byte budget; ``None`` (default) leaves the store unbounded.

    Thread safety: one process-wide lock serializes get/put/evict, so a
    service dispatcher and a stats poller can share an instance.
    """

    def __init__(
        self, root: str | os.PathLike[str], max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corrupt = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def _entry_files(self) -> list[Path]:
        """Every regular file in a two-character shard directory.

        In-flight ``.tmp`` files live in the root, so they are invisible
        by construction.  Any suffix counts, so entries of an older
        format still count towards the budget, are evicted and are
        cleared instead of leaking disk.
        """
        if not self.root.is_dir():
            return []
        files: list[Path] = []
        with os.scandir(self.root) as shards:
            for shard in shards:
                if len(shard.name) == 2 and shard.is_dir():
                    with os.scandir(shard.path) as entries:
                        files.extend(
                            Path(entry.path)
                            for entry in entries
                            if entry.is_file()
                        )
        return files

    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationResult | None:
        """The stored result for ``key``, or ``None`` on a miss.

        Any undecodable entry is deleted and reported as a miss (plus a
        ``corrupt`` tick) — the recompute path is always available, so
        the store never raises for bad bytes.
        """
        path = self._path(key)
        with self._lock:
            try:
                result = self._load(path)
            except FileNotFoundError:
                self._misses += 1
                return None
            except Exception:
                # Truncated write, flipped bits, stale format — all the
                # same outcome: drop the entry, recompute.
                self._corrupt += 1
                self._misses += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            try:
                os.utime(path)  # LRU bump: hits keep an entry young
            except OSError:
                pass
            self._hits += 1
            return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (idempotent; atomic commit).

        The payload is written to a tempfile in the store root and
        ``os.replace``d into place, so readers only ever see complete
        entries; a concurrent duplicate put is a harmless overwrite
        with identical bytes.
        """
        path = self._path(key)
        payload = self._encode(result)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix="put-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self._evict_locked(keep=path)

    # ------------------------------------------------------------------
    def _encode(self, result: SimulationResult) -> bytes:
        """The entry bytes for one result: prefix, header, body."""
        table = result.table
        body = b"".join(
            np.asarray(getattr(table, name), dtype=dtype).tobytes()
            for name, dtype in _LAYOUT
        )
        header = {
            "format": STORE_FORMAT,
            "policy": result.policy,
            "method": result.method,
            "machines": list(result.machines),
            "table_machines": list(table.machines),
            "rows": len(table),
            "columns": _COLUMNS,
            "crc32": zlib.crc32(body),
        }
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        text += b" " * (-(_PREFIX.size + len(text)) % _ALIGN)
        return _PREFIX.pack(len(text), zlib.crc32(text)) + text + body

    def _load(self, path: Path) -> SimulationResult:
        """Decode one entry; raises on anything malformed."""
        with open(path, "rb") as fh:
            raw = fh.read()
        header_len, header_crc = _PREFIX.unpack_from(raw)
        offset = _PREFIX.size + header_len
        header_bytes = raw[_PREFIX.size : offset]
        if offset % _ALIGN or zlib.crc32(header_bytes) != header_crc:
            raise ValueError("result-store entry header is corrupt")
        header = json.loads(header_bytes)
        if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
            raise ValueError("unknown result-store entry format")
        if header.get("columns") != _COLUMNS:
            raise ValueError("unknown result-store column layout")
        rows = header["rows"]
        body = memoryview(raw)[offset:]
        if len(body) != rows * _ROW_BYTES:
            raise ValueError("result-store entry body has the wrong length")
        if zlib.crc32(body) != header["crc32"]:
            raise ValueError("result-store entry body is corrupt")
        columns: dict[str, np.ndarray[Any, np.dtype[Any]]] = {}
        for name, dtype in _LAYOUT:
            columns[name] = np.frombuffer(
                raw, dtype=dtype, count=rows, offset=offset
            )
            offset += rows * dtype.itemsize
        table = OutcomeTable(
            [str(m) for m in header["table_machines"]], **columns
        )
        return SimulationResult(
            policy=str(header["policy"]),
            method=str(header["method"]),
            machines=[str(m) for m in header["machines"]],
            table=table,
        )

    # ------------------------------------------------------------------
    def _evict_locked(self, keep: Path) -> None:
        """Drop oldest-touched entries until the byte budget fits.

        ``keep`` (the entry just written or hit) is never evicted, so a
        budget smaller than one entry degrades to caching exactly the
        most recent result instead of thrashing to empty.
        """
        if self.max_bytes is None:
            return
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for file in self._entry_files():
            try:
                stat = file.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, file))
            total += stat.st_size
        entries.sort(key=lambda item: (item[0], item[2].name))
        for mtime, size, file in entries:
            if total <= self.max_bytes:
                break
            if file == keep:
                continue
            try:
                file.unlink()
            except OSError:
                continue
            total -= size
            self._evictions += 1

    # ------------------------------------------------------------------
    def stats(self) -> ResultStoreStats:
        """Current counters plus a fresh entry/byte scan."""
        with self._lock:
            entries = self._entry_files()
            total = 0
            for file in entries:
                try:
                    total += file.stat().st_size
                except OSError:
                    pass
            return ResultStoreStats(
                entries=len(entries),
                bytes=total,
                max_bytes=self.max_bytes,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                corrupt=self._corrupt,
            )

    def clear(self) -> None:
        """Delete every committed entry (counters are preserved)."""
        with self._lock:
            for file in self._entry_files():
                try:
                    file.unlink()
                except OSError:
                    pass


__all__ = [
    "STORE_FORMAT",
    "ResultStore",
    "ResultStoreStats",
    "task_store_key",
]

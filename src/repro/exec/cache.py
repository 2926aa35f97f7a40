"""On-disk result cache: content-hashed experiment records under ``.repro_cache/``.

Sweeps and benchmarks re-run the same (spec, trace, seed) points over and
over — across iterations of a notebook, across CI runs, across the serial
and parallel halves of a perf benchmark.  This cache makes repeated points
free: a record is keyed by a :func:`repro.exec.seeding.stable_digest` over
everything that determines the result (deployment spec, trace fingerprint,
seeds, simulator knobs) *plus a code-version salt*, and stored as one JSON
file.  Bump the salt (it defaults to ``repro.__version__``) or delete the
directory to invalidate.

Design points:

- **exact round-trip** — Python's JSON encoder emits shortest-round-trip
  float reprs, so a cache hit returns bit-identical floats to the original
  computation (warm run == cold run, asserted in the tier-1 suite);
- **atomic writes** — records land via ``os.replace`` of a temp file, so
  concurrent workers never expose a torn record;
- **graceful misses** — unreadable/corrupt/foreign records count as misses
  and are recomputed, never raised;
- **observability** — hit/miss/store counters mirror the engine's
  :class:`~repro.cluster.engine.ServiceTimeProvider.cache_info` idiom.

Values are encoded through a small codec registry; anything the codec does
not know (arbitrary objects) is simply not cached — :meth:`ResultCache.put`
returns ``False`` and the caller's result is unaffected.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import SpecError
from .seeding import stable_digest

__all__ = ["MISS", "ResultCache", "encode_result", "decode_result"]


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache MISS>"


MISS = _Miss()

_JSON_SCALARS = (str, int, float, bool, type(None))


def encode_result(value: Any) -> Dict[str, Any]:
    """Encode a result into a JSON-able ``{"type": ..., "data": ...}`` record.

    Raises ``TypeError`` for values the codec cannot represent faithfully.
    """
    from ..cluster.simulator import SimReport  # local: the cluster stack imports repro.exec

    if isinstance(value, SimReport):
        return {"type": "SimReport", "data": value.__dict__.copy()}
    if isinstance(value, _JSON_SCALARS) or isinstance(value, (list, dict)):
        # Round-trip through the encoder to reject nested non-JSON payloads
        # now (inside put()) rather than corrupting the record on disk.
        json.dumps(value, allow_nan=True)
        return {"type": "json", "data": value}
    raise TypeError(f"no cache codec for {type(value).__name__}")


def decode_result(record: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    from ..cluster.simulator import SimReport  # local: the cluster stack imports repro.exec

    kind = record["type"]
    if kind == "SimReport":
        return SimReport(**record["data"])
    if kind == "json":
        return record["data"]
    raise TypeError(f"unknown cache record type {kind!r}")


class ResultCache:
    """A directory of content-addressed JSON experiment records.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> key = cache.key("demo", 1, 2)
    >>> cache.get(key) is MISS
    True
    >>> cache.put(key, {"answer": 42})
    True
    >>> cache.get(key)
    {'answer': 42}
    >>> cache.cache_info()["hits"]
    1
    """

    def __init__(self, root: str | os.PathLike = ".repro_cache", salt: Optional[str] = None) -> None:
        if salt is None:
            # Code-version salt; local: repro sets __version__ after importing us.
            from .. import __version__ as salt
        self.root = Path(root)
        self.salt = str(salt)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, *parts: Any) -> str:
        """Content hash of ``parts`` under this cache's code-version salt."""
        return stable_digest(self.salt, *parts)

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise SpecError("cache keys must be hex digests (use ResultCache.key)")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            if record.get("salt") != self.salt:
                raise ValueError("salt mismatch")
            value = decode_result(record["payload"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; ``False`` if the codec declines."""
        try:
            payload = encode_result(value)
        except TypeError:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"key": key, "salt": self.salt, "payload": payload}
        # Atomic publish: a concurrent reader sees the old record or the new
        # one, never a partial write.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, allow_nan=True)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stores += 1
        return True

    def entries(self) -> int:
        """Number of records currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def size_bytes(self) -> int:
        """Total on-disk size of every record (for the ``repro cache`` CLI)."""
        if not self.root.exists():
            return 0
        total = 0
        for path in self.root.glob("*/*.json"):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing cleaner
                pass
        return total

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing cleaner
                    pass
        return removed

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/store counters plus resident records (for tests/CLI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": self.entries(),
        }

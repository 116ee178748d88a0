"""Persistent cache of tuned schedules.

swATOP "can be used as an offline compiler by pre-generating
near-optimal executable code, or be integrated into other frameworks to
provide online autotuning" (Sec. 1).  The cache is what makes both
modes practical: the first encounter of an operator configuration pays
the (seconds-scale) model-based tuning cost; every later encounter
reuses the stored winning strategy.  Entries can be persisted to a JSON
file and shipped like a pre-tuned kernel library.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..dsl.schedule import ScheduleStrategy
from ..errors import ReproError
from ..persist import read_document, valid_number, write_document

logger = logging.getLogger(__name__)


class CacheError(ReproError):
    """Malformed cache file or key collision."""


def _encode_value(value):
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode_value(v) for v in value["__tuple__"])
    return value


@dataclass
class TunedEntry:
    """One cached tuning outcome."""

    strategy: ScheduleStrategy
    predicted_cycles: Optional[float] = None
    measured_cycles: Optional[float] = None
    #: digest recorded when the kernel last passed differential
    #: validation (see :func:`repro.engine.validation_digest`).  ``None``
    #: (older cache files) or a stale value marks the entry untrusted:
    #: the library revalidates it on the next hit before believing it.
    validation_digest: Optional[str] = None

    def to_json(self) -> Dict:
        data = {
            "decisions": {
                k: _encode_value(v) for k, v in self.strategy.decisions.items()
            },
            "predicted_cycles": self.predicted_cycles,
            "measured_cycles": self.measured_cycles,
        }
        if self.validation_digest is not None:
            data["validation_digest"] = self.validation_digest
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "TunedEntry":
        try:
            decisions = {
                k: _decode_value(v) for k, v in data["decisions"].items()
            }
        except (AttributeError, KeyError, TypeError) as exc:
            raise CacheError(f"malformed cache entry: {data!r}") from exc
        if not valid_number(data.get("predicted_cycles")) or not valid_number(
            data.get("measured_cycles")
        ):
            raise CacheError(f"malformed cache entry: {data!r}")
        return cls(
            strategy=ScheduleStrategy(decisions),
            predicted_cycles=data.get("predicted_cycles"),
            measured_cycles=data.get("measured_cycles"),
            validation_digest=data.get("validation_digest"),
        )


def _parse_entry(key: str, data) -> Optional[TunedEntry]:
    try:
        return TunedEntry.from_json(data)
    except CacheError:
        return None


class KernelCache:
    """String-keyed store of tuned strategies with JSON persistence."""

    VERSION = 1

    def __init__(self) -> None:
        self._entries: Dict[str, TunedEntry] = {}
        self.hits = 0
        self.misses = 0
        #: accounting of the load that produced this cache
        self.recovered = False
        self.skipped_entries = 0
        self.quarantined_path: Optional[Path] = None
        #: keys dropped by :meth:`quarantine` (kernel failed the
        #: sanitizer or differential validation at use time)
        self.quarantined_keys: list = []

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[TunedEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(
        self, key: str, entry: TunedEntry, *, overwrite: bool = False
    ) -> None:
        """Store a tuned strategy.

        Re-putting the *same* strategy under a key is always allowed
        (it just refreshes the cycle numbers), but replacing a key with
        a *different* strategy requires ``overwrite=True`` -- two
        concurrent tuning runs racing on one key would otherwise
        silently clobber each other's winners.
        """
        existing = self._entries.get(key)
        if (
            existing is not None
            and not overwrite
            and dict(existing.strategy.decisions) != dict(entry.strategy.decisions)
        ):
            raise CacheError(
                f"cache key {key!r} already holds a different strategy "
                f"(pass overwrite=True to replace it)"
            )
        self._entries[key] = entry

    def keys(self):
        return list(self._entries)

    def quarantine(self, key: str) -> Optional[TunedEntry]:
        """Drop a cached strategy whose kernel failed the sanitizer or
        differential validation at use time; the next call for the key
        re-tunes from scratch.  Returns the dropped entry (``None`` if
        the key was absent) and records the key in
        ``quarantined_keys``."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.quarantined_keys.append(key)
            logger.warning("quarantined kernel cache entry %r", key)
        return entry

    # --- persistence ------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the cache atomically (temp file + rename), so a killed
        process never leaves a half-written library file behind."""
        write_document(
            path,
            {
                "hits": self.hits,
                "misses": self.misses,
                "entries": {k: e.to_json() for k, e in self._entries.items()},
            },
            version=self.VERSION,
            salt=None,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "KernelCache":
        """Read a cache file under :func:`repro.persist.read_document`'s
        policy; malformed entries are skipped and counted, so a session
        re-tunes what it lost instead of refusing to start.  Unsalted:
        a tuned strategy stays legal across code versions."""
        doc = read_document(path, version=cls.VERSION, salt=None)
        cache = cls()
        cache._entries = doc.parse_entries(_parse_entry)
        cache.recovered = doc.recovered
        cache.skipped_entries = doc.skipped_entries
        cache.quarantined_path = doc.quarantined_path
        body = doc.body or {}
        # counters survive the round-trip (older files without them
        # load as zero)
        try:
            cache.hits = int(body.get("hits", 0))
            cache.misses = int(body.get("misses", 0))
        except (TypeError, ValueError):
            cache.hits = cache.misses = 0
        return cache

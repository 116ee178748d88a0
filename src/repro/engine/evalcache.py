"""Persistent on-disk evaluation cache.

The in-process shared memo (:mod:`repro.engine.evaluators`) already
guarantees that a strategy scored anywhere in one process is never
re-simulated; this module extends the same guarantee *across*
processes: repeated harness runs, CI benches and
:class:`~repro.runtime.library.AtopLibrary` sessions warm-start from a
versioned JSON store instead of re-measuring strategies that were
already scored yesterday.

Design points:

* **Keys** are the existing :meth:`MemoizingEvaluator.key` tuples,
  digested with SHA-256 of their ``repr`` -- the tuples are built from
  primitives (strings, ints, floats, nested tuples) whose ``repr`` is
  stable across processes, unlike ``hash()`` under ``PYTHONHASHSEED``.
* **Values** store the predicted/measured cycle counts plus the
  numeric ``SimReport`` summary (cycles breakdown, bytes, flops --
  everything the harness tables read).  The report is rebuilt on a hit
  with the *requesting* evaluator's machine config, which is sound
  because the key already pins ``config_signature``: only a
  signature-identical config can reach the entry.
* A **code-version salt** is written into the file header; loading a
  store whose salt differs from the running code discards it wholesale.
  Bump :data:`CODE_SALT` whenever lowering, the optimizer pipeline or
  the cost model change in a way that moves scores.
* Writes are **atomic** (temp file + rename) and deferred: callers
  flush at batch boundaries (``evaluate_batch`` does this), so a tuning
  loop is never slowed by per-candidate disk traffic.
* Loading is **corruption-safe**: a truncated file (a process killed
  mid-write on a filesystem without atomic rename, a torn copy) gives
  up only the *unparseable suffix* -- the valid prefix of entries is
  recovered, still subject to the per-file version/salt check.  Each
  surviving entry is validated individually; malformed entries are
  skipped and counted.  An unrecoverable file is quarantined to a
  ``*.corrupt`` sidecar with a logged reason so the evidence survives
  for diagnosis instead of being overwritten on the next flush.

``set_eval_cache`` installs a process-wide default store (the CLI's
``--eval-cache PATH`` routes here); every :class:`MemoizingEvaluator`
without an explicit ``disk`` argument picks it up.
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..machine.config import MachineConfig, default_config
from ..machine.trace import SimReport
from .evaluators import Evaluation

__all__ = [
    "CODE_SALT",
    "EVAL_CACHE_VERSION",
    "PersistentEvalStore",
    "atomic_write_json",
    "default_eval_store",
    "quarantine_corrupt",
    "recover_truncated_json",
    "set_eval_cache",
]

logger = logging.getLogger(__name__)

#: bump on incompatible changes to the on-disk layout.
EVAL_CACHE_VERSION = 2

#: identity of the scoring code; a mismatch invalidates the whole
#: store.  Bump when lowering / optimizer passes / cost model change
#: the scores a key maps to.
CODE_SALT = "swatop-pr3"

#: the numeric SimReport fields persisted alongside the cycle counts
#: (the ``config`` field is rebuilt from the requesting evaluator).
_REPORT_FIELDS = (
    "cycles",
    "dma_cycles",
    "compute_cycles",
    "bytes_moved",
    "waste_bytes",
    "flops",
    "num_cgs_used",
    "detail",
)


def report_to_dict(report: Optional[SimReport]) -> Optional[dict]:
    if report is None:
        return None
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def report_from_dict(
    raw: Optional[dict], config: Optional[MachineConfig]
) -> Optional[SimReport]:
    if raw is None:
        return None
    return SimReport(
        config=config or default_config(),
        **{name: raw[name] for name in _REPORT_FIELDS if name in raw},
    )


# --- shared persistence helpers ---------------------------------------
def atomic_write_json(path: Union[str, Path], payload: dict) -> None:
    """Write JSON via temp-file-then-rename so readers never observe a
    partial file (shared by the eval store, the kernel cache and the
    search checkpoints)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine_corrupt(path: Union[str, Path], reason: str) -> Optional[Path]:
    """Move an unreadable persistence file to a ``*.corrupt`` sidecar
    and log why.  An existing sidecar is never clobbered -- repeated
    corruption of the same path lands in ``*.corrupt.1``,
    ``*.corrupt.2``, ... so every piece of post-mortem evidence
    survives.  Returns the sidecar path, or ``None`` when the move
    itself failed."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".corrupt")
    n = 0
    while sidecar.exists():
        n += 1
        sidecar = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        os.replace(path, sidecar)
    except OSError as exc:
        logger.warning(
            "could not quarantine corrupt file %s (%s): %s", path, reason, exc
        )
        return None
    logger.warning("quarantined corrupt file %s -> %s: %s", path, sidecar, reason)
    return sidecar


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def _skip_ws_comma(text: str, i: int) -> int:
    i = _skip_ws(text, i)
    if i < len(text) and text[i] == ",":
        i = _skip_ws(text, i + 1)
    return i


def recover_truncated_json(text: str) -> Dict:
    """Best-effort parse of a truncated single-object JSON document.

    Walks the top-level object key by key with
    :meth:`json.JSONDecoder.raw_decode`; for an ``"entries"`` object
    every fully-parsed ``key: value`` pair is kept and parsing stops at
    the first incomplete one.  Anything recovered before the
    truncation point (including the ``version``/``salt`` header, which
    the flush layout writes first) survives.
    """
    dec = json.JSONDecoder()
    out: Dict = {}
    try:
        i = _skip_ws(text, 0)
        if text[i] != "{":
            return out
        i += 1
        while True:
            i = _skip_ws_comma(text, i)
            if text[i] == "}":
                break
            key, i = dec.raw_decode(text, i)
            i = _skip_ws(text, i)
            if text[i] != ":":
                break
            i = _skip_ws(text, i + 1)
            if key == "entries" and i < len(text) and text[i] == "{":
                entries: Dict = {}
                out["entries"] = entries
                i += 1
                while True:
                    i = _skip_ws_comma(text, i)
                    if text[i] == "}":
                        i += 1
                        break
                    ekey, i = dec.raw_decode(text, i)
                    i = _skip_ws(text, i)
                    if text[i] != ":":
                        raise ValueError("truncated entry")
                    i = _skip_ws(text, i + 1)
                    value, i = dec.raw_decode(text, i)
                    entries[ekey] = value
            else:
                value, i = dec.raw_decode(text, i)
                out[key] = value
            i = _skip_ws(text, i)
            if i >= len(text):
                break
            if text[i] == "}":
                break
    except (ValueError, IndexError):
        pass  # truncation point reached: keep what was fully parsed
    return out


def _valid_number(value) -> bool:
    return value is None or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


class PersistentEvalStore:
    """A versioned JSON store of evaluation outcomes."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        salt: str = CODE_SALT,
    ) -> None:
        self.path = Path(path)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        #: corruption-recovery accounting of the initial load
        self.recovered = False
        self.invalid_entries = 0
        self.quarantined_path: Optional[Path] = None
        self._entries: Dict[
            str, Tuple[Optional[float], Optional[float], Optional[dict]]
        ] = {}
        self._dirty = False
        self._flush_seq = 0
        self._load()

    # --- persistence ---------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            text = self.path.read_text()
        except OSError as exc:
            logger.warning("eval cache %s unreadable: %s", self.path, exc)
            return
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raw = recover_truncated_json(text)
            if not isinstance(raw.get("entries"), dict):
                # nothing salvageable: keep the evidence, start empty
                self.quarantined_path = quarantine_corrupt(
                    self.path, f"unparseable JSON ({exc})"
                )
                self._dirty = True
                return
            self.recovered = True
            logger.warning(
                "eval cache %s is truncated (%s); recovered the valid "
                "prefix of %d entries",
                self.path,
                exc,
                len(raw["entries"]),
            )
        if not isinstance(raw, dict):
            self.quarantined_path = quarantine_corrupt(
                self.path, f"top-level JSON is {type(raw).__name__}, not object"
            )
            self._dirty = True
            return
        if (
            raw.get("version") != EVAL_CACHE_VERSION
            or raw.get("salt") != self.salt
        ):
            self._dirty = True  # stale store: rewrite on next flush
            return
        entries = raw.get("entries", {})
        if not isinstance(entries, dict):
            entries = {}
        for digest, value in entries.items():
            entry = self._validate_entry(digest, value)
            if entry is None:
                self.invalid_entries += 1
                continue
            self._entries[digest] = entry
        if self.invalid_entries:
            self._dirty = True  # rewrite without the bad entries
            logger.warning(
                "eval cache %s: skipped %d malformed entries",
                self.path,
                self.invalid_entries,
            )
        if self.recovered:
            self._dirty = True  # persist the recovered prefix cleanly

    @staticmethod
    def _validate_entry(digest, value):
        """One entry's schema check: (predicted, measured, report)."""
        if not isinstance(digest, str):
            return None
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            return None
        pred, meas, report = value
        if not _valid_number(pred) or not _valid_number(meas):
            return None
        if report is not None and not isinstance(report, dict):
            return None
        return (pred, meas, report)

    def flush(self) -> None:
        """Atomically write pending entries to disk (no-op when clean)."""
        if not self._dirty:
            return
        payload = {
            "version": EVAL_CACHE_VERSION,
            "salt": self.salt,
            "entries": {d: list(v) for d, v in self._entries.items()},
        }
        atomic_write_json(self.path, payload)
        self._dirty = False
        self._inject_flush_faults()
        self._flush_seq += 1

    def _inject_flush_faults(self) -> None:
        """Chaos hook: an active ``corrupt`` fault truncates the file
        just written, simulating a torn write the next load must
        survive."""
        from ..faults import active_fault_plan

        plan = active_fault_plan()
        if plan is None:
            return
        if not plan.should_fire(
            "corrupt", f"{self.path.name}:{self._flush_seq}"
        ):
            return
        try:
            data = self.path.read_bytes()
            cut = max(1, int(len(data) * 0.6))
            self.path.write_bytes(data[:cut])
            self._dirty = True  # in-memory entries still pending
            logger.warning(
                "fault injection: truncated %s to %d/%d bytes (flush #%d)",
                self.path,
                cut,
                len(data),
                self._flush_seq,
            )
        except OSError:  # pragma: no cover - injection is best-effort
            pass

    # --- mapping -------------------------------------------------------
    @staticmethod
    def digest(key: Tuple) -> str:
        """Stable cross-process digest of a memo key tuple."""
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def get(
        self, key: Tuple, *, config: Optional[MachineConfig] = None
    ) -> Optional[Evaluation]:
        """Look up a key; ``config`` rebuilds the persisted report's
        machine context (the key already guarantees it is
        signature-identical to the one that produced the entry)."""
        entry = self._entries.get(self.digest(key))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        predicted, measured, report = entry
        return Evaluation(
            predicted_cycles=predicted,
            measured_cycles=measured,
            report=report_from_dict(report, config),
            memoized=True,
        )

    def put(self, key: Tuple, evaluation: Evaluation) -> None:
        if evaluation.failed:
            return  # quarantined candidates never reach the disk store
        if (
            evaluation.predicted_cycles is None
            and evaluation.measured_cycles is None
        ):
            return  # nothing worth persisting
        digest = self.digest(key)
        entry = (
            evaluation.predicted_cycles,
            evaluation.measured_cycles,
            report_to_dict(evaluation.report),
        )
        if self._entries.get(digest) == entry:
            return
        self._entries[digest] = entry
        self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        text = (
            f"{len(self._entries)} entries at {self.path} "
            f"({self.hits} hits / {self.misses} misses)"
        )
        if self.recovered:
            text += " [recovered from truncated file]"
        if self.invalid_entries:
            text += f" [{self.invalid_entries} malformed entries skipped]"
        if self.quarantined_path is not None:
            text += f" [corrupt original at {self.quarantined_path}]"
        return text


#: the process-wide default store (None = persistence disabled).
_DEFAULT_STORE: Optional[PersistentEvalStore] = None


def set_eval_cache(
    target: Union[None, str, Path, PersistentEvalStore]
) -> Optional[PersistentEvalStore]:
    """Install (or clear, with ``None``) the process-wide eval cache.

    Accepts a path (a store is created/loaded there) or a ready-made
    :class:`PersistentEvalStore`.  Returns the installed store so
    callers can inspect or flush it.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is not None and _DEFAULT_STORE is not target:
        _DEFAULT_STORE.flush()
    if target is None or isinstance(target, PersistentEvalStore):
        _DEFAULT_STORE = target
    else:
        _DEFAULT_STORE = PersistentEvalStore(target)
    return _DEFAULT_STORE


def default_eval_store() -> Optional[PersistentEvalStore]:
    return _DEFAULT_STORE

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
* The file is a :mod:`repro.persist` document salted with
  :func:`~repro.persist.code_salt` (a digest of the package source),
  so a store written by other code is ignored wholesale.  Loading
  follows that module's single corrupt/stale-file policy (a torn
  write keeps its valid prefix of entries); on top of it each entry
  is validated individually and malformed entries are skipped and
  counted.
* Writes are deferred: callers flush at batch boundaries
  (``evaluate_batch`` does this), so a tuning loop is never slowed by
  per-candidate disk traffic.
* The store is also the resume format: the search is deterministic, so
  rerunning an interrupted sweep over the same store takes the same
  batches and answers every score flushed before the interrupt (see
  DESIGN.md "Resuming a sweep").

A store installed as ``TuneOptions.eval_store`` (:mod:`repro.options`;
the CLI's ``--eval-cache PATH`` routes here) is picked up by every
:class:`MemoizingEvaluator` without an explicit ``disk`` argument.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path
from typing import Optional, Tuple, Union

from ..machine.config import MachineConfig, default_config
from ..machine.trace import SimReport
from ..options import current
from ..persist import code_salt, read_document, valid_number, write_document
from .evaluators import Evaluation

__all__ = [
    "EVAL_CACHE_VERSION",
    "PersistentEvalStore",
]

logger = logging.getLogger(__name__)

#: bump on incompatible changes to the on-disk layout.
EVAL_CACHE_VERSION = 2

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


class PersistentEvalStore:
    """A versioned JSON store of evaluation outcomes."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._flush_seq = 0
        doc = read_document(
            self.path, version=EVAL_CACHE_VERSION, salt=code_salt()
        )
        self._entries = doc.parse_entries(self._validate_entry)
        #: corruption-recovery accounting of the initial load
        self.recovered = doc.recovered
        self.skipped_entries = doc.skipped_entries
        self.quarantined_path = doc.quarantined_path
        # rewrite a recovered prefix or a store with bad entries cleanly
        self._dirty = doc.recovered or doc.skipped_entries > 0

    @staticmethod
    def _validate_entry(digest, value):
        """One entry's schema check: (predicted, measured, report)."""
        if not isinstance(digest, str):
            return None
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            return None
        pred, meas, report = value
        if not valid_number(pred) or not valid_number(meas):
            return None
        if report is not None and not isinstance(report, dict):
            return None
        return (pred, meas, report)

    def flush(self) -> None:
        """Atomically write pending entries to disk (no-op when clean)."""
        if not self._dirty:
            return
        write_document(
            self.path,
            {"entries": {d: list(v) for d, v in self._entries.items()}},
            version=EVAL_CACHE_VERSION,
            salt=code_salt(),
        )
        self._dirty = False
        self._inject_flush_faults()
        self._flush_seq += 1

    def _inject_flush_faults(self) -> None:
        """Chaos hook: an active ``corrupt`` fault truncates the file
        just written, simulating a torn write the next load must
        survive."""
        plan = current().faults
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
        if self.skipped_entries:
            text += f" [{self.skipped_entries} malformed entries skipped]"
        if self.quarantined_path is not None:
            text += f" [corrupt original at {self.quarantined_path}]"
        return text


"""Checkpoint/resume for the branch-and-bound search.

An interrupted sweep used to lose everything: thousands of lowered and
scored candidates, the incumbent top-K, the prune counters.  The
search driver (:func:`repro.engine.search.search_candidates`) now
writes a versioned JSON sidecar at every batch boundary -- atomically,
via temp-file-then-rename -- holding the incumbent heap, the
evaluated-position cursor, every scored outcome (including quarantined
failures) and the prune counters.  Resuming restores that state and
continues the sweep; because strategy enumeration, bound computation
and the bound-sorted order are all deterministic, the resumed run's
final winner and top-K are bit-identical to an uninterrupted one
(tested in ``tests/engine/test_checkpoint.py``).

The sidecar is a salted :mod:`repro.persist` document.  On top of that
policy a checkpoint is only trusted when its ``space`` digest (compute
signature + strategy count + search parameters + evaluator
fingerprint) matches the running search and its fields parse as a
whole.

A :class:`CheckpointPolicy` installed as ``TuneOptions.checkpoint``
(:mod:`repro.options`) is the run-wide knob behind the CLI's
``--checkpoint DIR`` / ``--resume`` flags: experiment sweeps run many
searches, so the policy names one file per search digest inside the
directory.  ``tune_with_model(..., resume_from=PATH)`` and
``tune_blackbox(..., resume_from=PATH)`` target one explicit file
instead.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..persist import code_salt, quarantine_corrupt, read_document, write_document
from .evalcache import report_from_dict, report_to_dict
from .evaluators import Evaluation, FailedEvaluation
from .metrics import PruneBatch

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointPolicy",
    "SearchCheckpoint",
    "search_digest",
]

logger = logging.getLogger(__name__)

#: bump on incompatible changes to the sidecar layout.
CHECKPOINT_VERSION = 1


def search_digest(
    compute_sig: Tuple,
    n_strategies: int,
    top_k: int,
    schedule: Tuple[int, ...],
    evaluator,
    lowering: Tuple,
) -> str:
    """Identity of one search problem: only a checkpoint written by a
    bit-identical search (same space, same parameters, same evaluator
    family and fitted parameters, same lowering context) may be
    resumed.  ``lowering`` is what changes the kernels of a strategy
    without changing the compute -- the lowering options, prefetch on
    or off and the machine -- so the two arms of a prefetch ablation
    never resume each other's checkpoint."""
    params = None
    params_key = getattr(evaluator, "params_key", None)
    if callable(params_key):
        params = params_key()
    fingerprint = (
        compute_sig,
        int(n_strategies),
        int(top_k),
        tuple(int(b) for b in schedule),
        getattr(evaluator, "kind", "?"),
        repr(params),
        lowering,
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


@dataclass
class SearchCheckpoint:
    """Resumable state of one branch-and-bound sweep.

    ``pos`` is the cursor into the bound-sorted order (the evaluated
    set is exactly the positions below it -- the driver consumes the
    order as a contiguous prefix).  ``scored`` maps enumeration index
    -> serialized evaluation for every candidate that was realized and
    scored (quarantined failures included, so a resumed sweep reports
    them identically).  ``worst_k`` is the incumbent max-heap (negated
    scores) that prunes the remaining space; the counters and batch
    trace reproduce the run's accounting.
    """

    space: str
    pos: int = 0
    worst_k: List[float] = field(default_factory=list)
    scored: List[Tuple[int, Dict]] = field(default_factory=list)
    bound_pruned: int = 0
    spm_pruned: int = 0
    quarantined: int = 0
    prune_batches: List[PruneBatch] = field(default_factory=list)
    complete: bool = False

    # --- (de)serialization --------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        body = {
            "space": self.space,
            "pos": self.pos,
            "worst_k": list(self.worst_k),
            "scored": [[idx, raw] for idx, raw in self.scored],
            "counters": {
                "bound_pruned": self.bound_pruned,
                "spm_pruned": self.spm_pruned,
                "quarantined": self.quarantined,
            },
            "prune_batches": [
                [b.considered, b.pruned, b.lowered]
                for b in self.prune_batches
            ],
            "complete": self.complete,
        }
        write_document(path, body, version=CHECKPOINT_VERSION, salt=code_salt())

    @classmethod
    def load(
        cls, path: Union[str, Path], *, expect_space: str
    ) -> Optional["SearchCheckpoint"]:
        """Read a checkpoint; ``None`` when absent, stale or untrusted.

        Beyond :func:`repro.persist.read_document`'s policy, a ``space``
        mismatch (another search) is left in place and ignored, while
        fields that fail to parse or run past the cursor quarantine the
        file.
        """
        raw = read_document(path, version=CHECKPOINT_VERSION, salt=code_salt()).body
        if raw is None:
            return None
        if raw.get("space") != expect_space:
            logger.warning("checkpoint %s belongs to another search; starting fresh", path)
            return None
        try:
            counters = raw.get("counters", {})
            state = cls(
                space=raw["space"],
                pos=int(raw["pos"]),
                worst_k=[float(v) for v in raw.get("worst_k", [])],
                scored=[
                    (int(idx), dict(entry))
                    for idx, entry in raw.get("scored", [])
                ],
                bound_pruned=int(counters.get("bound_pruned", 0)),
                spm_pruned=int(counters.get("spm_pruned", 0)),
                quarantined=int(counters.get("quarantined", 0)),
                prune_batches=[
                    PruneBatch(int(c), int(p), int(lw))
                    for c, p, lw in raw.get("prune_batches", [])
                ],
                complete=bool(raw.get("complete", False)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            quarantine_corrupt(path, f"malformed checkpoint fields ({exc})")
            return None
        if state.pos < 0 or len(state.scored) > max(state.pos, 0):
            quarantine_corrupt(path, "inconsistent checkpoint (scored beyond cursor)")
            return None
        return state

    # --- evaluation payload helpers -----------------------------------
    @staticmethod
    def pack_eval(evaluation: Evaluation) -> Dict:
        if evaluation.failed:
            assert isinstance(evaluation, FailedEvaluation)
            return {
                "failed": True,
                "site": evaluation.site,
                "error_type": evaluation.error_type,
                "error_message": evaluation.error_message,
                "error_chain": list(evaluation.error_chain),
                "attempts": evaluation.attempts,
            }
        return {
            "predicted": evaluation.predicted_cycles,
            "measured": evaluation.measured_cycles,
            "report": report_to_dict(evaluation.report),
        }

    @staticmethod
    def unpack_eval(raw: Dict, config) -> Evaluation:
        if raw.get("failed"):
            return FailedEvaluation(
                site=str(raw.get("site", "exception")),
                error_type=str(raw.get("error_type", "")),
                error_message=str(raw.get("error_message", "")),
                error_chain=tuple(raw.get("error_chain", ())),
                attempts=int(raw.get("attempts", 0)),
            )
        return Evaluation(
            predicted_cycles=raw.get("predicted"),
            measured_cycles=raw.get("measured"),
            report=report_from_dict(raw.get("report"), config),
        )


@dataclass(frozen=True)
class CheckpointPolicy:
    """Run-wide checkpointing: a directory that receives one
    ``search-<digest>.json`` per distinct search, plus whether existing
    checkpoints should be resumed."""

    directory: Path
    resume: bool = False

    def path_for(self, digest: str) -> Path:
        return self.directory / f"search-{digest[:16]}.json"


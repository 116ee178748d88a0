"""Run options: the one object behind every process-wide tuning knob.

A tuning run has six switches that reach far below the call that
starts it -- branch-and-bound pruning, differential validation, the
machine sanitizer, the persistent eval store, fault injection and IR
dumping.  They live together in one frozen :class:`TuneOptions`;
:func:`current` returns the installed object and :func:`use` installs
a modified copy for the duration of a ``with`` block, restoring the
previous one on exit (exception or not)::

    with use(prune=False, sanitize=True):
        tune_with_model(compute, space)

The object is ambient rather than threaded through every signature:
passing it explicitly would add a forwarding parameter to every
experiment, runner, tuner, ``CompiledKernel``, ``PassManager`` and
``evaluate_batch``.  The per-call keywords (``prune=``, ``validate=``,
``sanitize=``, ``disk=``) remain the explicit path and take precedence
over the installed options.

At import the installed options come from :meth:`TuneOptions.from_env`,
the only reader of ``REPRO_SANITIZE``; ``python -m repro`` scopes its
flags to one run with :func:`use`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

if TYPE_CHECKING:
    from .engine.evalcache import PersistentEvalStore
    from .faults import FaultPlan
    from .passes.manager import IrDump

__all__ = [
    "ENV_SANITIZE",
    "TuneOptions",
    "VALIDATE_MODES",
    "check_validate_mode",
    "current",
    "use",
]

#: any value but empty or ``0`` turns the sanitizer on by default
ENV_SANITIZE = "REPRO_SANITIZE"

#: differential-validation modes (see :mod:`repro.engine.validate`)
VALIDATE_MODES = ("off", "winner", "all")


def check_validate_mode(mode: str) -> str:
    if mode not in VALIDATE_MODES:
        raise ValueError(
            f"validate mode must be one of {VALIDATE_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class TuneOptions:
    """Process-wide tuning options.

    ``prune`` is branch-and-bound pruning (off: ``--no-prune``);
    ``validate`` the differential-validation mode, where ``None`` means
    ``"all"`` when ``sanitize`` is on and ``"off"`` otherwise;
    ``sanitize`` runs every kernel under the machine sanitizer;
    ``eval_store`` is the
    :class:`~repro.engine.evalcache.PersistentEvalStore` of every
    memoizing evaluator without an explicit ``disk`` (rerunning an
    interrupted sweep over the same store resumes it); ``faults`` the
    active :class:`~repro.faults.FaultPlan` (a no-op plan becomes
    ``None``); ``dump_ir`` an :class:`~repro.passes.manager.IrDump`.
    """

    prune: bool = True
    validate: Optional[str] = None
    sanitize: bool = False
    eval_store: Optional["PersistentEvalStore"] = None
    faults: Optional["FaultPlan"] = None
    dump_ir: Optional["IrDump"] = None

    def __post_init__(self) -> None:
        if self.validate is not None:
            check_validate_mode(self.validate)
        if self.faults is not None and self.faults.is_noop():
            object.__setattr__(self, "faults", None)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "TuneOptions":
        """Defaults, with ``sanitize`` taken from ``REPRO_SANITIZE`` in
        ``environ`` (default: the process environment)."""
        env = os.environ if environ is None else environ
        return cls(sanitize=env.get(ENV_SANITIZE, "").strip() not in ("", "0"))


_CURRENT = TuneOptions.from_env()


def current() -> TuneOptions:
    """The installed options."""
    return _CURRENT


@contextmanager
def use(**changes) -> Iterator[TuneOptions]:
    """Install ``current()`` with ``changes`` applied until the block
    ends, then restore the previous options.  An eval store this scope
    installed is flushed after the restore."""
    global _CURRENT
    previous = _CURRENT
    options = replace(previous, **changes)
    _CURRENT = options
    try:
        yield options
    finally:
        _CURRENT = previous
        store = options.eval_store
        if store is not None and store is not previous.eval_store:
            store.flush()

"""Deterministic fault injection for chaos-testing the tuning engine.

Long autotuning sweeps die on rare failures -- an evaluation that
crashes mid-candidate, an evaluator that raises on one poisoned
strategy, a hang, a cache file truncated by a killed process.  Those
events are hard to reproduce organically, so this module manufactures
them *deterministically*: a seeded :class:`FaultPlan` decides, per
(site, key, attempt), whether a fault fires, by hashing the decision
coordinates with the seed.  The same plan therefore injects the same
faults in every run and in every process -- which is what lets the
tests assert that the supervised engine recovers to bit-identical
results.

Sites:

``crash``
    The evaluator raises :class:`InjectedCrash`, standing in for an
    evaluation that dies mid-candidate; the supervisor retries and, if
    it persists, quarantines the candidate like any other failure.
``exception``
    The evaluator raises :class:`InjectedEvaluatorError` -- an ordinary
    in-band evaluation failure.
``hang``
    The evaluator raises :class:`InjectedHang`, which supervision
    classifies as a hang.  This is a *virtual-clock* hang: tests
    exercise the hang recovery path without ever sleeping.
``corrupt``
    :meth:`~repro.engine.evalcache.PersistentEvalStore.flush` truncates
    the freshly written store file, simulating a torn write.

Faults keyed by ``(site, key, attempt)`` are *transient* by
construction: a retry re-draws at the next attempt number, so at rate
``r`` a candidate fails twice in a row with probability ``r**2``.  A
``poison`` prefix, by contrast, is *persistent*: every candidate whose
digest starts with the prefix always raises, on every attempt -- the
supervised engine must quarantine exactly that candidate.

Everything is a no-op until a plan is installed as
``TuneOptions.faults`` (:mod:`repro.options`; the CLI's
``--inject-faults SPEC`` does this); production code pays one ``None``
check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from .errors import ReproError
from .options import current

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "InjectedCrash",
    "InjectedEvaluatorError",
    "InjectedFault",
    "InjectedHang",
    "candidate_digest",
    "compute_digest",
    "maybe_corrupt_outputs",
]

#: the injectable fault sites, in spec order.
FAULT_SITES = ("crash", "exception", "hang", "corrupt")


class InjectedFault(ReproError):
    """Base class of all injected failures (never raised by real code)."""


class InjectedCrash(InjectedFault):
    """Stands in for an evaluation that dies mid-candidate."""


class InjectedEvaluatorError(InjectedFault):
    """An ordinary evaluator exception."""


class InjectedHang(InjectedFault):
    """A virtual-clock hang: supervision classifies it as a hang
    without any wall-clock wait."""


def _draw(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one fault decision."""
    h = hashlib.sha256(
        f"{seed}:{site}:{key}:{attempt}".encode()
    ).digest()
    return int.from_bytes(h[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault-injection schedule.

    ``crash``/``exception``/``hang`` are per-evaluation firing rates in
    [0, 1]; ``corrupt`` is a per-flush rate for cache-file truncation.
    ``poison`` is a hex digest prefix (see :func:`candidate_digest`):
    matching candidates raise on *every* attempt and can only leave the
    sweep by quarantine.
    """

    seed: int = 0
    crash: float = 0.0
    exception: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    poison: Optional[str] = None

    def is_noop(self) -> bool:
        return (
            not self.poison
            and self.crash <= 0.0
            and self.exception <= 0.0
            and self.hang <= 0.0
            and self.corrupt <= 0.0
        )

    def rate(self, site: str) -> float:
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        return float(getattr(self, site))

    def should_fire(self, site: str, key: str, attempt: int = 0) -> bool:
        """Did the plan schedule a fault at these coordinates?

        Pure function of ``(seed, site, key, attempt)`` -- the same
        coordinates fire (or don't) identically in every process.
        """
        rate = self.rate(site)
        if rate <= 0.0:
            return False
        return _draw(self.seed, site, key, attempt) < rate

    def is_poison(self, digest: str) -> bool:
        return bool(self.poison) and digest.startswith(self.poison)

    # --- spec round-trip -----------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--inject-faults`` spec string.

        Comma-separated ``name=value`` pairs: the four site rates,
        ``seed=N`` and ``poison=HEXPREFIX``, e.g.
        ``"crash=0.1,corrupt=0.5,seed=42"``.
        """
        plan = cls()
        if not spec.strip():
            return plan
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            name = name.strip()
            value = value.strip()
            if not sep:
                raise ValueError(
                    f"malformed --inject-faults item {item!r} "
                    f"(expected name=value)"
                )
            if name == "seed":
                plan = replace(plan, seed=int(value))
            elif name == "poison":
                plan = replace(plan, poison=value or None)
            elif name in FAULT_SITES:
                rate = float(value)
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(
                        f"fault rate {name}={rate} outside [0, 1]"
                    )
                plan = replace(plan, **{name: rate})
            else:
                raise ValueError(
                    f"unknown --inject-faults field {name!r} "
                    f"(sites: {', '.join(FAULT_SITES)}, plus seed, poison)"
                )
        return plan

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts += [
            f"{site}={self.rate(site):g}"
            for site in FAULT_SITES
            if self.rate(site) > 0
        ]
        if self.poison:
            parts.append(f"poison={self.poison}")
        return ",".join(parts)


def candidate_digest(candidate) -> str:
    """Stable cross-process identity of one candidate (compute +
    strategy), used to key fault decisions and poison matching."""
    from .engine.evaluators import compute_signature, strategy_key

    key = (
        compute_signature(candidate.compute),
        strategy_key(candidate.strategy),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def compute_digest(compute) -> str:
    """Stable identity of one compute definition (no strategy).

    Poison prefixes matched against *this* digest corrupt every kernel
    lowered from that operator -- the hook differential validation and
    the sanitizer-era end-to-end tests use to plant a silently wrong
    kernel."""
    from .engine.evaluators import compute_signature

    return hashlib.sha256(
        repr(compute_signature(compute)).encode()
    ).hexdigest()


def maybe_corrupt_outputs(compute, outputs) -> bool:
    """Silently perturb a kernel's outputs when the active plan poisons
    this operator's :func:`compute_digest`.

    Called by the executor after every functional run; the perturbation
    is deterministic and large relative to any dtype tolerance, so
    differential validation *must* catch it.  Returns ``True`` when a
    corruption was applied.  One ``None`` check when no plan is active.
    """
    plan = current().faults
    if plan is None or not plan.poison:
        return False
    if not plan.is_poison(compute_digest(compute)):
        return False
    for arr in outputs.values():
        flat = arr.reshape(-1)
        if flat.size:
            flat[0] += max(1.0, abs(float(flat[0])))
    return True


class FaultyEvaluator:
    """Evaluator wrapper that consults a :class:`FaultPlan` before
    delegating to the real evaluator.

    Built by ``evaluate_batch`` when a plan is active; its supervisor
    passes the attempt number of every try.  Fault decisions are keyed
    by the candidate's digest and that attempt number, so they are
    identical in every run of the same plan.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.kind = inner.kind

    def params_key(self):
        return self.inner.params_key()

    def evaluate(self, candidate, attempt: int = 0):
        digest = candidate_digest(candidate)
        if self.plan.is_poison(digest):
            raise InjectedEvaluatorError(
                f"poison candidate {digest[:12]} (always fails)"
            )
        if self.plan.should_fire("crash", digest, attempt):
            raise InjectedCrash(
                f"injected crash at candidate {digest[:12]} "
                f"attempt {attempt}"
            )
        if self.plan.should_fire("hang", digest, attempt):
            raise InjectedHang(
                f"injected hang at candidate {digest[:12]} "
                f"attempt {attempt}"
            )
        if self.plan.should_fire("exception", digest, attempt):
            raise InjectedEvaluatorError(
                f"injected evaluator exception at candidate "
                f"{digest[:12]} attempt {attempt}"
            )
        return self.inner.evaluate(candidate)

    def __getattr__(self, name):
        # config, coeffs, feeds... -- callers introspect the wrapped
        # evaluator for report rebuilding and memo keys.
        return getattr(self.inner, name)

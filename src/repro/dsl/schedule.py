"""The schedule *space*: every tunable decision of a kernel.

Mirrors Fig. 4 (right): ``FactorVar`` declares the candidate tile
factors of a split (swATOP "automatically traverses all valid
candidates of the factor"); ``reorder`` takes explicit candidate orders
(permutation spaces are too large to enumerate blindly); layout and
vectorization choices extend the space further (Secs. 4.3.2, 4.3.3).

A concrete assignment of every decision is a
:class:`ScheduleStrategy`; the scheduler enumerates the whole space and
lowers each strategy to IR, pruning illegal ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import DslError
from .compute import ComputeDef

Choice = Union[int, str, Tuple]


def default_factors(extent: int, *, lanes: int = 4, cap: int = 512) -> List[int]:
    """Candidate tile factors for an axis: vector-friendly sizes up to
    the extent, plus the extent itself (no tiling).

    Non-divisor candidates are deliberately included -- they produce the
    boundary tiles whose handling the paper evaluates (Fig. 11).
    """
    if extent <= 0:
        raise DslError("extent must be positive")
    cands = {extent}
    f = lanes
    while f < min(extent, cap):
        cands.add(f)
        f *= 2
    # a few non-power-of-two, vector-aligned sizes
    for f in (24, 48, 96, 192, 384):
        if lanes <= f < extent and f <= cap:
            cands.add(f)
    return sorted(cands)


@dataclass(frozen=True)
class FactorVar:
    """Tile-factor decision for one axis."""

    axis: str
    candidates: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise DslError(f"FactorVar({self.axis!r}) has no candidates")
        if any(c <= 0 for c in self.candidates):
            raise DslError(f"FactorVar({self.axis!r}) has non-positive candidates")

    @property
    def key(self) -> str:
        return f"tile:{self.axis}"


@dataclass(frozen=True)
class ChoiceVar:
    """A categorical decision (loop order, layout, vec dim, ...)."""

    key: str
    candidates: Tuple[Choice, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise DslError(f"ChoiceVar({self.key!r}) has no candidates")


@dataclass(frozen=True)
class ScheduleStrategy:
    """One fully-assigned point in the schedule space."""

    decisions: Mapping[str, Choice]

    def __getitem__(self, key: str) -> Choice:
        try:
            return self.decisions[key]
        except KeyError:
            raise DslError(f"strategy has no decision {key!r}") from None

    def get(self, key: str, default: Optional[Choice] = None) -> Optional[Choice]:
        return self.decisions.get(key, default)

    def tile(self, axis: str) -> int:
        return int(self[f"tile:{axis}"])  # type: ignore[arg-type]

    def describe(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.decisions.items()))


class ScheduleSpace:
    """The Cartesian product of all declared decisions."""

    def __init__(self, compute: ComputeDef) -> None:
        self.compute = compute
        self._factors: Dict[str, FactorVar] = {}
        self._choices: Dict[str, ChoiceVar] = {}

    # --- declaration ----------------------------------------------------------
    def split(
        self, axis: str, candidates: Optional[Sequence[int]] = None
    ) -> FactorVar:
        """Declare a tiling split of ``axis`` (Sec. 4.3.1's Split).

        Default candidates come from :func:`default_factors`; a factor
        equal to the extent means "no split".
        """
        if axis not in self.compute.axes:
            raise DslError(f"split of unknown axis {axis!r}")
        if axis in self._factors:
            raise DslError(f"axis {axis!r} already split")
        extent = self.compute.axes[axis].extent
        cands = (
            tuple(default_factors(extent))
            if candidates is None
            else tuple(int(c) for c in candidates)
        )
        for c in cands:
            if c > extent:
                raise DslError(
                    f"factor {c} exceeds extent {extent} of axis {axis!r}"
                )
        fv = FactorVar(axis, cands)
        self._factors[axis] = fv
        return fv

    def reorder(self, candidates: Sequence[Sequence[str]]) -> ChoiceVar:
        """Declare candidate loop orders (explicit, as in the paper:
        'since there are extremely numerous permutations of a set,
        reorder requires explicit candidates')."""
        orders = []
        axis_set = set(self.compute.axes)
        for cand in candidates:
            order = tuple(cand)
            if set(order) != axis_set or len(order) != len(axis_set):
                raise DslError(
                    f"reorder candidate {order} is not a permutation of the axes"
                )
            orders.append(order)
        return self._add_choice("order", tuple(orders))

    def layout(self, tensor: str, candidates: Sequence[Sequence[int]]) -> ChoiceVar:
        """Declare main-memory layout candidates for a tensor, as
        permutations of its dimensions (Sec. 4.3.2)."""
        if tensor not in self.compute.tensors:
            raise DslError(f"layout of unknown tensor {tensor!r}")
        rank = len(self.compute.tensors[tensor].dims)
        perms = []
        for cand in candidates:
            perm = tuple(int(i) for i in cand)
            if sorted(perm) != list(range(rank)):
                raise DslError(
                    f"layout candidate {perm} is not a permutation of "
                    f"range({rank}) for tensor {tensor!r}"
                )
            perms.append(perm)
        return self._add_choice(f"layout:{tensor}", tuple(perms))

    def vectorize(self, candidates: Sequence[str] = ("M", "N")) -> ChoiceVar:
        """Declare the vectorization-dimension choice (Sec. 4.3.3)."""
        for c in candidates:
            if c not in ("M", "N"):
                raise DslError(f"vectorize candidate must be M or N, got {c!r}")
        return self._add_choice("vec_dim", tuple(candidates))

    def spm_layout(self, operand: str, candidates: Sequence[str] = ("row_major", "col_major")) -> ChoiceVar:
        """Declare the SPM storage order of a GEMM operand tile
        ('a' or 'b') -- together with vec_dim this selects among the
        eight kernel variants."""
        if operand not in ("a", "b"):
            raise DslError("spm_layout operand must be 'a' or 'b'")
        for c in candidates:
            if c not in ("row_major", "col_major"):
                raise DslError(f"bad SPM layout candidate {c!r}")
        return self._add_choice(f"spm_layout:{operand}", tuple(candidates))

    def choice(self, key: str, candidates: Sequence[Choice]) -> ChoiceVar:
        """Escape hatch for operator-specific decisions."""
        return self._add_choice(key, tuple(candidates))

    def _add_choice(self, key: str, candidates: Tuple[Choice, ...]) -> ChoiceVar:
        if key in self._choices:
            raise DslError(f"decision {key!r} already declared")
        cv = ChoiceVar(key, candidates)
        self._choices[key] = cv
        return cv

    # --- enumeration ------------------------------------------------------------
    def pools(self) -> Tuple[List[str], List[Tuple[Choice, ...]]]:
        """The decision keys and their candidate pools, in enumeration
        order: tile factors as split, then choices as declared."""
        keys = [fv.key for fv in self._factors.values()] + list(self._choices)
        pools = [fv.candidates for fv in self._factors.values()] + [
            cv.candidates for cv in self._choices.values()
        ]
        return keys, pools

    @property
    def decision_keys(self) -> List[str]:
        return self.pools()[0]

    def size(self) -> int:
        return math.prod(len(pool) for pool in self.pools()[1])

    def strategies(self) -> Iterator[ScheduleStrategy]:
        """Enumerate every point of the space (pre-pruning)."""
        keys, pools = self.pools()
        for combo in itertools.product(*pools):
            yield ScheduleStrategy(dict(zip(keys, combo)))

    def strategy_at(self, index: int) -> ScheduleStrategy:
        """The ``index``-th strategy of :meth:`strategies`, without
        walking the space: a mixed-radix decode in which the last
        decision varies fastest, as in :func:`itertools.product`."""
        keys, pools = self.pools()
        combo: List[Choice] = []
        rest = index
        for pool in reversed(pools):
            rest, digit = divmod(rest, len(pool))
            combo.append(pool[digit])
        if rest:  # negative, or not below the space size
            raise IndexError(f"strategy index {index} outside [0, {self.size()})")
        return ScheduleStrategy(dict(zip(keys, reversed(combo))))

    def strategy(self, **overrides: Choice) -> ScheduleStrategy:
        """A single strategy: first candidate of every decision, with
        keyword overrides (``tile_No=32`` targets ``tile:No``)."""
        decisions: Dict[str, Choice] = {}
        for fv in self._factors.values():
            decisions[fv.key] = fv.candidates[0]
        for cv in self._choices.values():
            decisions[cv.key] = cv.candidates[0]
        for key, value in overrides.items():
            norm = key.replace("tile_", "tile:", 1) if key.startswith("tile_") else key
            norm = norm.replace("layout_", "layout:", 1) if norm.startswith("layout_") else norm
            norm = (
                norm.replace("spm_layout_", "spm_layout:", 1)
                if norm.startswith("spm_layout_")
                else norm
            )
            if norm not in decisions:
                raise DslError(f"unknown decision {key!r}")
            decisions[norm] = value
        return ScheduleStrategy(decisions)

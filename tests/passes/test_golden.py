"""Golden tests: lowering and the optimizer keep producing pinned IR.

``golden_ir.json`` pins every strategy, in enumeration order, of seven
fixed spaces: :func:`gemm_space`, :func:`conv_space` and the five
``COLLAPSE_SPACES``.  A strategy lowering rejects is pinned as ``null``;
any other as the row named by the file's ``fields``: digests of the raw
IR, of the optimized IR with prefetch on and with prefetch off, and the
exact ``predict_kernel`` cycles of both optimized kernels
(``float.hex``).  A digest is the SHA-256 of ``repr(KernelNode)``: the
nodes are dataclasses, so the repr spells out the whole tree (and the
insertion order of affine coefficients, which ``==`` ignores).

The pins were written while the frozen pre-pipeline lowering still
existed, and that lowering with its optimizer tail gave identical rows,
so they share no code with what they check.  Re-pinning
(``PYTHONPATH=src python -m tests.passes.test_golden``) is a deliberate
act: a change that moves a pin says why, as one that moves the CI
cycles pins does.

The loop builder's own rewrites are pinned separately: a copy of the
builder that collapsed trip-count-1 loops by substituting zero for the
loop index must produce the same IR over whole GEMM and convolution
spaces.
"""

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.autotuner.calibrate import default_coeffs
from repro.autotuner.cost_model import predict_kernel
from repro.dsl import ScheduleSpace
from repro.engine import AnalyticEvaluator, CandidatePipeline
from repro.errors import IllegalCandidateError
from repro.ir.expr import AffineExpr
from repro.ir.nodes import DmaCgNode, ForNode, KernelNode, Node, SeqNode, TileAccess
from repro.machine.config import default_config
from repro.ops import conv_explicit, conv_implicit, conv_winograd
from repro.ops import gemm as gemm_ops
from repro.ops.conv_common import ConvParams
from repro.ops.strided import decompose
from repro.passes import lowering as lowering_module
from repro.scheduler import lower_strategy
from repro.scheduler.enumerate import Candidate
from repro.scheduler.lower import _KernelBuilder, _tile_sizes

from ..scheduler.test_lower import conv_cd, gemm_cd

PINS = Path(__file__).with_name("golden_ir.json")
FIELDS = (
    "raw", "optimized", "optimized-no-prefetch",
    "cycles", "cycles-no-prefetch",
)


def gemm_space(M=128, N=128, K=96):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [32, 64])
    sp.split("N", [32, 128])
    sp.split("K", [48, 96])  # 48 leaves no tail, 96 is untiled
    sp.vectorize()
    return cd, sp


def conv_space():
    cd = conv_cd()
    sp = ScheduleSpace(cd)
    sp.split("No", [8, 16])
    sp.split("Co", [4, 8])
    sp.split("Ni", [4, 8])
    sp.split("Kr", [1])  # kernel axes iterate point-wise
    sp.split("Kc", [1])
    return cd, sp


def _digest(kernel: KernelNode) -> str:
    return hashlib.sha256(repr(kernel).encode()).hexdigest()[:16]


def space_rows(cd, sp) -> List[Optional[List[str]]]:
    """The pin row of every strategy of ``sp``, in enumeration order."""
    config = default_config()
    coeffs = default_coeffs(config)
    pipes = [CandidatePipeline(cd), CandidatePipeline(cd, prefetch=False)]
    rows: List[Optional[List[str]]] = []
    for strategy in sp.strategies():
        try:
            raw = lower_strategy(cd, strategy)
        except IllegalCandidateError:
            rows.append(None)
            continue
        kernels = [p.optimize(Candidate(strategy, raw, cd)).kernel for p in pipes]
        rows.append(
            [_digest(raw)]
            + [_digest(k) for k in kernels]
            + [predict_kernel(k, coeffs, config).total.hex() for k in kernels]
        )
    return rows


def _spaces():
    return {"gemm_space": gemm_space, "conv_space": conv_space, **COLLAPSE_SPACES}


@functools.lru_cache(maxsize=None)
def _pinned() -> Dict[str, list]:
    pins = json.loads(PINS.read_text())
    assert pins["fields"] == list(FIELDS)
    return pins["spaces"]


@functools.lru_cache(maxsize=None)
def _rows(name: str):
    """(space, current rows) of one pinned space, computed once per run."""
    cd, sp = _spaces()[name]()
    return sp, space_rows(cd, sp)


def assert_matches_pins(name: str, fields: Sequence[str] = FIELDS) -> None:
    """Every strategy of space ``name`` is as legal as pinned and equals
    its pin row on ``fields``."""
    sp, rows = _rows(name)
    pinned = _pinned()[name]
    assert len(pinned) == sp.size() == len(rows), name
    cols = [FIELDS.index(f) for f in fields]
    for index, (want, got) in enumerate(zip(pinned, rows)):
        if want is None or got is None:
            same = want is got
        else:
            same = all(want[c] == got[c] for c in cols)
        assert same, (
            f"{name} strategy {index} {sp.strategy_at(index).decisions}: "
            f"pinned {want}, got {got} (fields {list(fields)})"
        )
    assert any(row is not None for row in rows), name


@pytest.mark.parametrize("make_space", [gemm_space, conv_space])
class TestBitIdenticalIr:
    def test_lowering_matches_reference(self, make_space):
        assert_matches_pins(make_space.__name__, ["raw"])

    def test_full_pipeline_matches_reference(self, make_space):
        assert_matches_pins(
            make_space.__name__, ["optimized", "optimized-no-prefetch"]
        )


class TestTunerPicksUnchanged:
    def test_analytic_ranking_matches_reference(self):
        """The analytic tuner scores every candidate at its pinned
        cycles, so it ranks the space as pinned."""
        cd, sp = gemm_space()
        evaluator = AnalyticEvaluator()

        def key(strategy):
            return tuple(sorted(strategy.decisions.items()))

        pipeline_scores = {
            key(cand.strategy): evaluator.evaluate(cand).cycles
            for cand in CandidatePipeline(cd, sp).candidates()
        }
        pinned_scores = {
            key(strategy): float.fromhex(row[FIELDS.index("cycles")])
            for strategy, row in zip(sp.strategies(), _pinned()["gemm_space"])
            if row is not None
        }
        assert pipeline_scores == pinned_scores
        best = min(pipeline_scores, key=pipeline_scores.__getitem__)
        assert best == min(pinned_scores, key=pinned_scores.__getitem__)


# ---------------------------------------------------------------------------
# trip-count-1 loops: built collapsed == built indexed, then substituted
# ---------------------------------------------------------------------------
def _substitute_var(node: Node, var: str, value: int) -> Node:
    """Bind a loop variable to a constant throughout a subtree (used
    when collapsing trip-count-1 loops)."""
    from repro.ir.visitors import transform

    def rewrite(n: Node):
        if isinstance(n, DmaCgNode):
            dims = tuple(
                (off.substitute({var: value}), length)
                for off, length in n.access.dims
            )
            return DmaCgNode(
                access=TileAccess(n.access.buffer, dims),
                spm=n.spm,
                direction=n.direction,
                reply=n.reply,
                geometry=n.geometry,
                phase_var=n.phase_var,
            )
        return None

    return transform(node, rewrite)


class _SubstitutingBuilder(_KernelBuilder):
    """The loop builder as it was before trip-count-1 loops were
    collapsed at construction: build the body with the loop index, then
    substitute zero for it throughout the subtree."""

    def _loop_over_axis(
        self,
        level: int,
        offsets: Dict[str, AffineExpr],
        lens: Dict[str, int],
        *,
        in_reduction: bool = False,
    ) -> Node:
        axis = self.order[level]
        extent = self.compute.axes[axis].extent
        tile = self.tiles[axis]
        full_trips, tail = divmod(extent, tile)
        next_level = (
            self._loop_over_reductions if in_reduction else self._build_level
        )

        nodes: List[Node] = []
        if full_trips > 0:
            var = f"c{axis}"
            off = offsets | {axis: AffineExpr.var(var) * tile}
            body = next_level(level + 1, off, lens | {axis: tile})
            if full_trips == 1:
                # trip-count-1 loops collapse: bind the index to zero
                body = _substitute_var(body, var, 0)
                nodes.append(body)
            else:
                nodes.append(ForNode(var, full_trips, body))
        if tail > 0:
            # boundary region: the peeled remainder iteration
            off = offsets | {axis: AffineExpr(full_trips * tile)}
            nodes.append(next_level(level + 1, off, lens | {axis: tail}))
        if len(nodes) == 1:
            return nodes[0]
        return SeqNode(nodes)


def _strided_phase_space():
    params = ConvParams(batch=2, ni=8, no=8, ri=12, ci=12, kr=3, kc=3,
                        pad=1, stride=2)
    phase = decompose(params)[0].params
    return conv_implicit.make_compute(phase), conv_implicit.make_space(phase)


def _op_space(module, params):
    return lambda: (module.make_compute(params), module.make_space(params))


COLLAPSE_SPACES = {
    "gemm": lambda: (lambda cd: (cd, gemm_ops.make_space(cd)))(
        gemm_ops.make_compute(72, 40, 56)
    ),
    "implicit": _op_space(
        conv_implicit, ConvParams(batch=1, ni=8, no=16, ri=8, ci=8, pad=1)
    ),
    "winograd": _op_space(
        conv_winograd, ConvParams(batch=1, ni=64, no=64, ri=34, ci=34)
    ),
    "explicit": _op_space(
        conv_explicit, ConvParams(batch=1, ni=4, no=8, ri=8, ci=8)
    ),
    "strided": _strided_phase_space,
}


@pytest.mark.parametrize("kind", sorted(COLLAPSE_SPACES))
def test_collapsed_loops_match_substitution(kind, monkeypatch):
    """Every strategy of the space lowers to the same IR whether a
    trip-count-1 loop is built with offset zero or built with its index
    and then substituted, both raw and after the optimizer passes."""
    cd, sp = COLLAPSE_SPACES[kind]()
    pipe = CandidatePipeline(cd)
    checked = collapsed = 0
    for strategy in sp.strategies():
        with monkeypatch.context() as m:
            m.setattr(lowering_module, "_KernelBuilder", _SubstitutingBuilder)
            try:
                expected = lower_strategy(cd, strategy)
            except IllegalCandidateError:
                with pytest.raises(IllegalCandidateError):
                    lower_strategy(cd, strategy)
                continue
        kernel = lower_strategy(cd, strategy)
        assert kernel == expected, strategy
        optimized = pipe.optimize(Candidate(strategy, kernel, cd)).kernel
        assert optimized == pipe.optimize(Candidate(strategy, expected, cd)).kernel
        checked += 1
        collapsed += any(
            cd.axes[ax].extent // tile == 1
            for ax, tile in _tile_sizes(cd, strategy).items()
        )
    assert checked > 0 and collapsed > 0


@pytest.mark.parametrize("kind", sorted(COLLAPSE_SPACES))
def test_space_matches_pins(kind):
    """Raw and optimized IR (prefetch on and off) and predicted cycles
    of every strategy of each collapse space equal their pins."""
    assert_matches_pins(kind)


def write_pins() -> None:
    """Re-pin every space from the current lowering and optimizer."""
    spaces = {}
    for name, make in _spaces().items():
        spaces[name] = space_rows(*make())
    rows = ",\n".join(
        f"    {json.dumps(name)}: [\n"
        + ",\n".join(f"      {json.dumps(row)}" for row in spaces[name])
        + "\n    ]"
        for name in sorted(spaces)
    )
    PINS.write_text(
        f'{{\n  "fields": {json.dumps(list(FIELDS))},\n'
        f'  "spaces": {{\n{rows}\n  }}\n}}\n'
    )


if __name__ == "__main__":
    write_pins()

"""Golden equivalence of the data-free timing path.

``CompiledKernel.time_only`` skips every byte of data movement and
arithmetic; it must still return exactly the report ``run`` produces,
field for field, for every legal candidate of whole schedule spaces.
Under the sanitizer it runs both paths and fails on any difference.
"""

import math

import numpy as np
import pytest

from repro.codegen.executor import CompiledKernel, _TimingState
from repro.dsl import ScheduleSpace
from repro.engine import CandidatePipeline, SimulatorEvaluator, synthetic_feeds
from repro.errors import SanitizerError
from repro.machine.config import default_config
from repro.machine.dma import transfer_cycles
from repro.ops import conv_implicit, conv_winograd
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space

from ..properties.test_dma_floor_properties import block_starts, reference_paid
from .test_executor_errors import _feeds, compiled

CFG = default_config()


def _gemm():
    compute = gemm_compute(72, 40, 56)  # unaligned: boundary tiles
    return compute, gemm_space(compute)


def _implicit():
    params = ConvParams(batch=1, ni=8, no=16, ri=8, ci=8, pad=1)
    return conv_implicit.make_compute(params), conv_implicit.make_space(params)


def _winograd():
    params = ConvParams(batch=1, ni=64, no=64, ri=34, ci=34)
    return conv_winograd.make_compute(params), conv_winograd.make_space(params)


SPACES = {"gemm": _gemm, "implicit": _implicit, "winograd": _winograd}


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_time_only_equals_run_on_every_candidate(kind):
    compute, space = SPACES[kind]()
    pipeline = CandidatePipeline(compute, space)
    feeds = synthetic_feeds(compute)
    checked = 0
    for candidate in pipeline.candidates():
        ck = CompiledKernel(candidate.kernel, compute, sanitize=False)
        fast = ck.time_only(feeds)
        assert fast == ck.run(feeds).report, candidate.strategy
        checked += 1
    assert checked == pipeline.stats.legal == space.size()


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_paid_bytes_match_reference_on_every_transfer(kind, monkeypatch):
    """Every transfer the simulator costs on every candidate of the
    space pays exactly the slice-by-slice reference at the real start
    address of each of its blocks, multi-level strided ones included,
    and is charged Eq. (1) on those bytes."""
    compute, space = SPACES[kind]()
    costed = []
    original = _TimingState._transfer_cost

    def recording(self, node, base):
        cost = original(self, node, base)
        costed.append((self.ck.storage_shapes[node.access.buffer], node, base, cost))
        return cost

    monkeypatch.setattr(_TimingState, "_transfer_cost", recording)
    feeds = synthetic_feeds(compute)
    candidates = multi_level = 0
    for candidate in CandidatePipeline(compute, space).candidates():
        CompiledKernel(candidate.kernel, compute, sanitize=False).time_only(feeds)
        candidates += 1
    assert candidates == space.size()
    for shape, node, base, (cycles, payload, paid) in costed:
        geo = node.geometry
        lengths = node.access.lengths
        expected = reference_paid(geo, block_starts(shape, lengths, base))
        assert paid == expected, (kind, lengths, shape, base)
        assert payload == math.prod(lengths) * CFG.dtype_bytes
        assert cycles == transfer_cycles(geo, expected, CFG)
        multi_level += geo.n_descriptors > 1
    assert costed
    # GEMM and Winograd operands are matrices (Winograd's batched), so
    # only the implicit-conv tiles stride on more than one level
    assert (multi_level > 0) == (kind == "implicit")


class _NeverHit(dict):
    """A memo that never answers: every lookup recomputes."""

    def get(self, key, default=None):
        return default


def test_per_run_memos_are_exact():
    """Every run of one kernel, ``run`` or ``time_only``, shares the
    kernel's DMA and node-cost tables, so repeated runs of one kernel on
    different feeds are checked against a fresh kernel and against a
    kernel that recomputes every cost.  The space tiles N=96 by 24: a
    B/C tile then starts at four different offsets modulo the 128-byte
    DRAM transaction, and pays differently at two of them."""
    compute = gemm_compute(32, 96, 32)
    space = ScheduleSpace(compute)
    space.split("M", [8, 32]); space.split("N", [24, 96]); space.split("K", [8, 32])
    space.reorder([("M", "N", "K"), ("N", "M", "K")])
    space.vectorize(); space.spm_layout("a"); space.spm_layout("b")
    feeds = [synthetic_feeds(compute, seed=seed) for seed in (0, 1)]
    pipeline = CandidatePipeline(compute, space)
    alignment_sensitive = checked = 0
    for candidate in pipeline.candidates():
        def kernel():
            return CompiledKernel(candidate.kernel, compute, sanitize=False)

        recomputing = kernel()
        recomputing._dma_memo = _NeverHit()
        recomputing._node_cycles = _NeverHit()
        want = recomputing.time_only(feeds[0])
        assert recomputing.run(feeds[1]).report == want, candidate.strategy
        assert kernel().run(feeds[0]).report == want, candidate.strategy
        reused = kernel()
        for i, timed in enumerate((True, False, True, False, False, True)):
            feed = feeds[i % 2]
            report = reused.time_only(feed) if timed else reused.run(feed).report
            assert report == want, (candidate.strategy, i)
        costs = {}
        for (node_id, _), cost in reused._dma_memo.items():
            costs.setdefault(node_id, set()).add(cost)
        alignment_sensitive += any(len(c) > 1 for c in costs.values())
        checked += 1
    assert checked == pipeline.stats.legal == space.size()
    assert alignment_sensitive > 0



class TestSanitizedGuard:
    def test_sanitized_time_only_is_the_functional_report(self):
        cd, ck = compiled()
        san = CompiledKernel(ck.kernel, cd, sanitize=True)
        assert san.time_only(_feeds()) == san.run(_feeds()).report

    @staticmethod
    def skew_data_free_dma(monkeypatch):
        """Make the data-free path mis-time every transfer."""
        original = _TimingState._transfer_cost

        def skewed(self, node, base):
            cycles, payload, paid = original(self, node, base)
            return cycles + 1.0, payload, paid

        monkeypatch.setattr(_TimingState, "_transfer_cost", skewed)

    def test_mismatch_raises_under_sanitizer(self, monkeypatch):
        cd, ck = compiled()
        self.skew_data_free_dma(monkeypatch)
        san = CompiledKernel(ck.kernel, cd, sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            san.time_only(_feeds())
        assert exc.value.check == "timing-mismatch"
        assert "dma_cycles" in str(exc.value)

    def test_unsanitized_path_is_not_cross_checked(self, monkeypatch):
        cd, ck = compiled()
        honest = CompiledKernel(ck.kernel, cd, sanitize=False).time_only(_feeds())
        self.skew_data_free_dma(monkeypatch)
        # a fresh kernel: costs are kept per kernel, so the honest
        # kernel's later runs would reuse its honest costs
        plain = CompiledKernel(ck.kernel, cd, sanitize=False)
        assert plain.time_only(_feeds()).cycles > honest.cycles

    def test_simulator_evaluator_guarded_under_sanitizer(self, monkeypatch):
        from repro.options import use
        from repro.scheduler import Candidate

        cd, ck = compiled()
        candidate = Candidate(None, ck.kernel, cd)
        feeds = _feeds()
        evaluator = SimulatorEvaluator(feeds)
        with use(sanitize=True):
            report = evaluator.evaluate(candidate).report
            assert report == CompiledKernel(ck.kernel, cd).run(feeds).report
            self.skew_data_free_dma(monkeypatch)
            with pytest.raises(SanitizerError):
                evaluator.evaluate(candidate)


def test_time_only_ignores_feed_values():
    cd, ck = compiled()
    plain = CompiledKernel(ck.kernel, cd, sanitize=False)
    zeros = {k: np.zeros_like(v) for k, v in _feeds().items()}
    assert plain.time_only(zeros) == plain.time_only(_feeds(seed=5))

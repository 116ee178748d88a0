"""Cross-check the executor's CG-level data movement against the per-CPE
view the DMA arithmetic charges: splitting every transfer of a real
kernel into its blocks (``flatten_access``: chunk offsets, chunk length,
outer strides) and each block into the cluster's column slices must
address exactly the data NumPy slicing of the tensor yields."""

import numpy as np

from repro.codegen.executor import CompiledKernel, _TimingState
from repro.engine import CandidatePipeline, synthetic_feeds
from repro.machine.config import default_config
from repro.machine.spm import partition_extent
from repro.ops import conv_implicit
from repro.ops.conv_common import ConvParams
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.optimizer.dma_inference import flatten_access

CFG = default_config()


def executed_transfers(compute, kernel, monkeypatch):
    """(transfer node, loop environment) of every transfer the executor
    runs, in program order."""
    seen = []
    original = _TimingState._dma_cost

    def recording(self, node, env):
        seen.append((node, dict(env)))
        return original(self, node, env)

    with monkeypatch.context() as patch:
        patch.setattr(_TimingState, "_dma_cost", recording)
        CompiledKernel(kernel, compute, sanitize=False).time_only(
            synthetic_feeds(compute)
        )
    return seen


class TestFaithfulDma:
    def test_per_cpe_descriptors_reassemble_executor_tile(self, monkeypatch):
        """For every transfer of real GEMM and implicit-conv kernels:
        gather each CPE's share -- its rows of blocks over the cluster
        rows, its column slice of each block over the cluster columns --
        from the flat tensor storage by address, reassemble, and
        compare against direct NumPy slicing of the tensor."""
        params = ConvParams(batch=1, ni=8, no=16, ri=8, ci=8, pad=1)
        gemm = gemm_compute(72, 40, 56)
        implicit = conv_implicit.make_compute(params)
        cases = [
            (gemm, gemm_space(gemm)),
            (implicit, conv_implicit.make_space(params)),
        ]
        rng = np.random.default_rng(0)
        checked = multi_level = 0
        for compute, space in cases:
            for candidate in CandidatePipeline(compute, space).candidates(limit=6):
                ck = CompiledKernel(candidate.kernel, compute, sanitize=False)
                data = {
                    name: rng.standard_normal(shape).astype(np.float32)
                    for name, shape in ck.storage_shapes.items()
                }
                for node, env in executed_transfers(compute, ck.kernel, monkeypatch):
                    arr = data[node.access.buffer]
                    offs = [off.evaluate(env) for off, _ in node.access.dims]
                    lens = node.access.lengths
                    flat = flatten_access(lens, arr.shape)
                    base = int(np.ravel_multi_index(offs, arr.shape))
                    starts = base + flat.chunk_offsets()
                    rows, cols = len(starts), flat.chunk_elems
                    expect = arr[
                        tuple(slice(o, o + n) for o, n in zip(offs, lens))
                    ].reshape(rows, cols)
                    got = np.full((rows, cols), np.nan, dtype=np.float32)
                    storage = arr.reshape(-1)
                    for r0, rl in partition_extent(rows, CFG.cluster_rows):
                        for c0, cl in partition_extent(cols, CFG.cluster_cols):
                            for r in range(r0, r0 + rl):
                                lo = starts[r] + c0
                                got[r, c0 : c0 + cl] = storage[lo : lo + cl]
                    np.testing.assert_array_equal(
                        got, expect, err_msg=f"{node.access.buffer} at {env}"
                    )
                    checked += 1
                    multi_level += len(flat.outer_lengths) > 1
        assert checked > 100 and multi_level > 0

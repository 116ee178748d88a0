"""Property: the per-transfer floor the strategy bound charges never
exceeds what either score charges for the same transfer -- Eq. (1) in
the cost model (first block aligned) and the simulator's per-address
transaction accounting -- for any tile of any storage shape, starting
at any element of a transaction-aligned tensor."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.cost_model import (
    min_transfer_cycles,
    paid_bytes,
    predict_dma,
)
from repro.codegen.executor import _ExecState
from repro.ir.expr import AffineExpr
from repro.ir.nodes import DmaCgNode, TileAccess
from repro.machine.config import default_config
from repro.machine.dma import MEM_TO_SPM
from repro.machine.spm import partition_extent
from repro.optimizer.dma_inference import flatten_access, geometry_of

CFG = default_config()


@st.composite
def transfers(draw):
    """A tile access, its storage shape and the byte address of its
    first element."""
    shape = tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=4)))
    lengths = tuple(draw(st.integers(1, extent)) for extent in shape)
    base = draw(st.integers(0, 64)) * CFG.mem_align
    start_elem = draw(st.integers(0, 4096))
    return shape, lengths, base + start_elem * CFG.dtype_bytes


def _node(shape, lengths):
    access = TileAccess("T", tuple((AffineExpr(0), n) for n in lengths))
    return DmaCgNode(
        access=access,
        spm="spm_a",
        direction=MEM_TO_SPM,
        geometry=geometry_of(access, shape, CFG),
    )


def _simulated(node, shape, addr):
    """The executor's cost of ``node`` starting at byte ``addr``."""
    state = SimpleNamespace(cfg=CFG, ck=SimpleNamespace(storage_shapes={"T": shape}))
    return _ExecState._transfer_cost(state, node, addr)


def _reference_paid(geo, start, blocks):
    """Block by block, slice by slice: every per-CPE column slice
    rounded out to whole transactions."""
    txn, eb = CFG.dram_transaction_bytes, CFG.dtype_bytes
    step = geo.block_bytes + geo.stride_bytes
    paid = 0
    for i in range(blocks):
        block = start + i * step
        for c0, cl in partition_extent(max(1, geo.block_bytes // eb), CFG.cluster_cols):
            if cl:
                lo = block + c0 * eb
                paid += -(-(lo + cl * eb) // txn) * txn - lo // txn * txn
    return paid


@settings(max_examples=300, deadline=None)
@given(transfers())
def test_floor_below_cost_model_and_simulator(transfer):
    shape, lengths, addr = transfer
    node = _node(shape, lengths)
    floor = min_transfer_cycles(node.geometry, CFG)
    assert floor <= predict_dma(node, CFG)
    assert floor <= _simulated(node, shape, addr)[0]


@settings(max_examples=300, deadline=None)
@given(transfers())
def test_paid_bytes_is_exact(transfer):
    shape, lengths, addr = transfer
    geo = _node(shape, lengths).geometry
    start = addr % CFG.dram_transaction_bytes
    blocks = geo.n_blocks // geo.n_descriptors
    assert paid_bytes(geo, [start], blocks, CFG) == [
        _reference_paid(geo, start, blocks)
    ]
    if len(flatten_access(lengths, shape).outer_lengths) <= 1:
        # one evenly spaced run of blocks: exactly what the simulator pays
        assert paid_bytes(geo, [start], geo.n_blocks, CFG) == [
            _simulated(_node(shape, lengths), shape, addr)[2]
        ]

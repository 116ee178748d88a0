"""Properties of the shared DMA arithmetic, for any tile of any storage
shape starting at any element of a transaction-aligned tensor:

* the per-transfer floor the strategy bound charges never exceeds what
  either score charges for the same transfer -- Eq. (1) in the cost
  model (first block aligned) and the simulator's per-address
  transaction accounting;
* both forms of the paid bytes, and what the simulator pays, equal a
  slice-by-slice reference (:func:`reference_paid`, also the oracle of
  the whole-space check in ``tests/codegen/test_timing_only.py``)."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.cost_model import min_transfer_cycles, predict_dma
from repro.codegen.executor import _ExecState
from repro.ir.expr import AffineExpr
from repro.ir.nodes import DmaCgNode, TileAccess
from repro.machine.config import default_config
from repro.machine.dma import MEM_TO_SPM, paid_bytes, paid_bytes_at, transfer_cycles
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


def block_starts(shape, lengths, addr):
    """Byte address of every block of the tile starting at ``addr``,
    from NumPy's own element indexing of the storage."""
    index = np.arange(int(np.prod(shape))).reshape(shape)
    tile = index[tuple(slice(0, n) for n in lengths)]
    chunk = flatten_access(lengths, shape).chunk_elems
    return addr + tile.reshape(-1, chunk)[:, 0] * CFG.dtype_bytes


def reference_paid(geo, addrs):
    """Block by block, slice by slice: every per-CPE column slice of a
    block at each address of ``addrs`` rounded out to whole
    transactions."""
    txn, eb = CFG.dram_transaction_bytes, CFG.dtype_bytes
    paid = 0
    for block in addrs:
        for c0, cl in partition_extent(max(1, geo.block_bytes // eb), CFG.cluster_cols):
            if cl:
                lo = int(block) + c0 * eb
                paid += -(-(lo + cl * eb) // txn) * txn - lo // txn * txn
    return paid


def _evenly_spaced(geo, start, blocks):
    step = geo.block_bytes + geo.stride_bytes
    return [start + i * step for i in range(blocks)]


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
    """The closed form of one evenly spaced run and the per-address
    form the simulator charges both equal the per-slice reference; the
    simulator pays exactly that for every tile, multi-level ones
    included."""
    shape, lengths, addr = transfer
    node = _node(shape, lengths)
    geo = node.geometry
    start = addr % CFG.dram_transaction_bytes
    blocks = geo.n_blocks // geo.n_descriptors
    assert paid_bytes(geo, [start], blocks, CFG) == [
        reference_paid(geo, _evenly_spaced(geo, start, blocks))
    ]
    addrs = block_starts(shape, lengths, addr)
    assert len(addrs) == geo.n_blocks
    expected = reference_paid(geo, addrs)
    assert paid_bytes_at(geo, addrs, CFG) == expected
    cycles, payload, paid = _simulated(node, shape, addr)
    assert paid == expected
    assert payload == int(np.prod(lengths)) * CFG.dtype_bytes
    assert cycles == transfer_cycles(geo, expected, CFG)
    if len(flatten_access(lengths, shape).outer_lengths) <= 1:
        # one evenly spaced run of blocks: the closed form over the
        # whole transfer is what the simulator pays
        assert paid_bytes(geo, [start], geo.n_blocks, CFG) == [paid]

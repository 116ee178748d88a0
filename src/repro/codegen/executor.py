"""Executable kernels: interpret optimized IR on the simulated SW26010.

This is the reproduction's equivalent of the paper's "generate machine
code and run it on the processor": a :class:`CompiledKernel` binds a
kernel IR to the machine model and its :meth:`~CompiledKernel.run`
produces both the *functional* result (exact NumPy arithmetic on the
tiles the DMA engine actually moved) and the *timing* result (a
:class:`~repro.machine.trace.SimReport` from transaction-accurate DMA
costs, structural GEMM cycle counts, and discrete-event overlap of the
DMA engine with compute under double buffering).

Timing never depends on the data, so :meth:`~CompiledKernel.time_only`
produces the same report without moving any: it walks the same loops
and keeps every check of :meth:`~CompiledKernel.run`, but binds tensors
to addresses only and skips the tile copies and the arithmetic.  What
depends on the node alone -- a transfer's cost per start alignment, a
GEMM's or zero-fill's cycles -- is costed once per kernel and reused by
every later run of it, functional or data-free.

Timing model: one compute timeline (``now``) plus one DMA-engine
timeline (``dma_free``) per core group.  Synchronous transfers advance
both; a ``pipelined`` loop issues iteration ``i+1``'s transfers when
iteration ``i`` starts computing, so the makespan of a streaming loop
approaches ``dma(0) + sum(max(compute_i, dma_{i+1}))`` -- the
``max(T_DMA, T_compute)`` behaviour Eq. (1)/(2) of the cost model
approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..dsl.compute import ComputeDef, ROLE_OUTPUT
from ..errors import CodegenError
from ..ir.nodes import (
    ComputeOpNode,
    DmaCgNode,
    DmaWaitNode,
    ForNode,
    GemmOpNode,
    IfThenElseNode,
    KernelNode,
    Node,
    SeqNode,
    TileAccess,
    ZeroSpmNode,
)
from ..machine.config import MachineConfig, default_config
from ..machine.dma import MEM_TO_SPM, paid_bytes_at, transfer_cycles
from ..machine.memory import MainMemory
from ..machine.sanitizer import MachineSanitizer, fail
from ..machine.trace import SimReport, Trace
from ..optimizer.dma_inference import flatten_access, storage_shapes
from ..optimizer.memplan import plan_spm
from ..optimizer.prefetch import direct_stream_dmas
from ..options import current
from ..primitives.gemm_kernel import kernel_cycles


@dataclass
class RunResult:
    outputs: Dict[str, np.ndarray]
    report: SimReport
    sanitizer_checks: Optional[int] = None  # None when sanitizing was off


class CompiledKernel:
    """An optimized kernel bound to the machine model."""

    def __init__(
        self,
        kernel: KernelNode,
        compute: ComputeDef,
        config: Optional[MachineConfig] = None,
        *,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.kernel = kernel
        self.compute = compute
        self.config = config or default_config()
        self.sanitize = current().sanitize if sanitize is None else bool(sanitize)
        self.spm_plan = plan_spm(kernel, self.config)  # validates capacity
        self.storage_shapes = storage_shapes(kernel, compute)
        self._validate()
        # costs that depend on the node alone, shared by every run of
        # this kernel: (DMA node id, start address modulo the DRAM
        # transaction) -> DMA cost, GEMM/zero node id -> cycles
        self._dma_memo: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
        self._node_cycles: Dict[int, float] = {}

    def _validate(self) -> None:
        from ..ir.visitors import find_all
        from ..passes.verifier import check_kernel

        for dma in find_all(self.kernel, DmaCgNode):
            if dma.geometry is None:
                raise CodegenError(
                    "kernel has un-inferred DMA nodes; run "
                    "the optimizer passes before building a CompiledKernel"
                )
            if dma.access.buffer not in self.compute.tensors:
                raise CodegenError(
                    f"DMA references unknown tensor {dma.access.buffer!r}"
                )
        # full structural verification: an executable kernel must hold
        # every invariant of the pass pipeline
        violations = check_kernel(
            self.kernel, compute=self.compute, config=self.config
        )
        if violations:
            raise CodegenError(
                "kernel fails IR verification: " + "; ".join(violations)
            )

    # ------------------------------------------------------------------
    def run(self, feeds: Dict[str, np.ndarray]) -> RunResult:
        """Execute the kernel.

        ``feeds`` maps every non-output tensor name to an array in the
        seed's *logical* dimension order; the runner packs it into the
        kernel's chosen storage layout (layout conversion is part of
        the operator contract, as in swDNN/xMath).  Output tensors are
        returned in logical order.
        """
        from ..faults import maybe_corrupt_outputs

        state = _ExecState(self, feeds)
        report = state.simulate()
        outputs = state.collect_outputs()
        maybe_corrupt_outputs(self.compute, outputs)
        return RunResult(
            outputs=outputs,
            report=report,
            sanitizer_checks=None if state.san is None else state.san.checks,
        )

    def time_only(self, feeds: Dict[str, np.ndarray]) -> SimReport:
        """The report of :meth:`run`, computed without the data.

        Feeds are checked for presence and shape but never copied, and
        no SPM tile, DMA copy, matmul or output exists; every access
        bounds check and GEMM shape check of :meth:`run` still runs and
        raises the same :class:`~repro.errors.CodegenError`.

        With sanitizing on this runs the functional, sanitized path --
        the sanitizer's shadow state needs the real execution -- and
        then also the data-free one, failing with a ``timing-mismatch``
        :class:`~repro.errors.SanitizerError` unless both reports are
        equal.
        """
        if not self.sanitize:
            return _TimingState(self, feeds).simulate()
        report = self.run(feeds).report
        fast = _TimingState(self, feeds).simulate()
        if fast != report:
            diffs = [
                f"{f.name} {getattr(fast, f.name)!r} vs {getattr(report, f.name)!r}"
                for f in fields(SimReport)
                if getattr(fast, f.name) != getattr(report, f.name)
            ]
            fail(
                "timing-mismatch",
                f"data-free timing of kernel {self.kernel.name!r} differs "
                f"from its functional run: {', '.join(diffs)}",
            )
        return report


class _ExecState:
    """Mutable interpreter state for one kernel run on one CG."""

    def __init__(self, ck: CompiledKernel, feeds: Dict[str, np.ndarray]) -> None:
        self.ck = ck
        self.cfg = ck.config
        self.now = 0.0
        self.dma_free = 0.0
        self.trace = Trace()
        self.memory = MainMemory(config=self.cfg)
        self._buffers = {}
        self._read_phase: Dict[str, int] = {}
        # the kernel's cost tables; a sanitized kernel costs every run
        # afresh, so its timing-mismatch guard compares two runs that
        # were costed independently
        if ck.sanitize:
            self._dma_memo: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
            self._node_cycles: Dict[int, float] = {}
        else:
            self._dma_memo = ck._dma_memo
            self._node_cycles = ck._node_cycles
        self.san: Optional[MachineSanitizer] = None
        self._bind(feeds)

    # --- setup -------------------------------------------------------------
    def _bind(self, feeds: Dict[str, np.ndarray]) -> None:
        ck = self.ck
        self._storage: Dict[str, np.ndarray] = {}
        self._spm: Dict[str, List[np.ndarray]] = {}
        from ..ir.visitors import find_all

        self._dma_in_targets = {
            d.spm
            for d in find_all(ck.kernel, DmaCgNode)
            if d.direction == MEM_TO_SPM
        }
        # the sanitizer is a single optional object; every hook below is
        # guarded by ``if self.san is not None`` so the disabled path
        # pays nothing beyond one identity check
        if ck.sanitize:
            self.san = MachineSanitizer(
                ck.kernel, self.cfg, ck.spm_plan, ck.storage_shapes
            )
        self._bind_tensors(feeds)
        self._bind_spm()
        if self.san is not None:
            self.san.set_dma_in_targets(self._dma_in_targets)
            for name, buf in self._buffers.items():
                self.san.bind_window(name, buf.addr, buf.nbytes)

    def _feed(self, feeds: Dict[str, np.ndarray], name: str) -> np.ndarray:
        """The feed of input tensor ``name``, checked against its
        logical shape."""
        if name not in feeds:
            raise CodegenError(f"missing feed for tensor {name!r}")
        data = np.asarray(feeds[name], dtype=np.float32)
        logical_shape = self.ck.compute.tensor_shape(name)
        if tuple(data.shape) != logical_shape:
            raise CodegenError(
                f"feed {name!r} has shape {data.shape}, "
                f"expected {logical_shape}"
            )
        return data

    def _bind_tensors(self, feeds: Dict[str, np.ndarray]) -> None:
        compute = self.ck.compute
        for name, spec in compute.tensors.items():
            buf = self.memory.alloc(name, self.ck.storage_shapes[name])
            view = self.memory.view(buf)
            if spec.role == ROLE_OUTPUT:
                view[...] = 0.0
            else:
                data = self._feed(feeds, name)
                perm = self.ck.kernel.tensor_layouts.get(
                    name, tuple(range(data.ndim))
                )
                view[...] = data.transpose(perm)
            self._buffers[name] = buf
            self._storage[name] = view

    def _bind_spm(self) -> None:
        for alloc in self.ck.kernel.allocs:
            phases = 2 if alloc.double_buffered else 1
            self._spm[alloc.name] = [
                np.zeros(alloc.shape, dtype=np.float32) for _ in range(phases)
            ]
            self._read_phase[alloc.name] = 0

    def collect_outputs(self) -> Dict[str, np.ndarray]:
        out = {}
        for name, spec in self.ck.compute.tensors.items():
            if spec.role != ROLE_OUTPUT:
                continue
            perm = self.ck.kernel.tensor_layouts.get(name)
            arr = self._storage[name]
            if perm is None:
                out[name] = arr.copy()
            else:
                inv = np.argsort(perm)
                out[name] = np.ascontiguousarray(arr.transpose(inv))
        return out

    def simulate(self) -> SimReport:
        """Execute the kernel body; the report of the run."""
        self.execute(self.ck.kernel.body, {})
        return SimReport.from_trace(
            self.trace,
            makespan=self.now,
            num_cgs_used=1,
            config=self.cfg,
            detail=self.ck.kernel.name,
        )

    # --- dispatch -------------------------------------------------------------
    def execute(
        self,
        node: Node,
        env: Dict[str, int],
        skip: Optional[Set[int]] = None,
    ) -> None:
        if skip is not None and id(node) in skip:
            return
        if isinstance(node, SeqNode):
            for child in node.body:
                self.execute(child, env, skip)
        elif isinstance(node, ForNode):
            if node.pipelined:
                self._exec_pipelined(node, env, skip)
            else:
                for i in range(node.extent):
                    self.execute(node.body, {**env, node.var: i}, skip)
        elif isinstance(node, IfThenElseNode):
            if node.cond.evaluate(env):
                self.execute(node.then_body, env, skip)
            elif node.else_body is not None:
                self.execute(node.else_body, env, skip)
        elif isinstance(node, DmaCgNode):
            self._exec_dma_sync(node, env)
        elif isinstance(node, GemmOpNode):
            self._exec_gemm(node)
        elif isinstance(node, ZeroSpmNode):
            self._exec_zero(node)
        elif isinstance(node, ComputeOpNode):
            self.trace.add(
                "transform", self.now, self.now + node.cycles,
                detail=node.name, flops=node.flops,
            )
            self.now += node.cycles
        elif isinstance(node, DmaWaitNode):
            self.now = max(self.now, self.dma_free)
        else:
            raise CodegenError(f"executor cannot handle {type(node).__name__}")

    # --- pipelined loop: the double-buffer overlap -----------------------------
    def _exec_pipelined(
        self,
        node: ForNode,
        env: Dict[str, int],
        skip: Optional[Set[int]],
    ) -> None:
        dmas = direct_stream_dmas(node)
        dma_ids = {id(d) for d in dmas}
        if skip:
            dma_ids |= skip
        pending: Dict[int, float] = {}

        def issue(i: int) -> None:
            it_env = {**env, node.var: i}
            finish = self.now
            for dma in dmas:
                cost, payload, paid = self._dma_cost(dma, it_env)
                start = max(self.now, self.dma_free)
                self.dma_free = start + cost
                self._dma_move_in(dma, it_env, phase=i % 2)
                if self.san is not None:
                    self.san.mark_inflight(dma.spm, i % 2, i, dma)
                self.trace.add(
                    "dma", start, start + cost,
                    detail=f"{dma.access.buffer}->spm:{dma.spm}",
                    bytes_moved=payload, waste_bytes=paid - payload,
                )
                finish = max(finish, start + cost)
            pending[i] = finish

        if node.extent == 0:
            return
        issue(0)
        for i in range(node.extent):
            self.now = max(self.now, pending.pop(i))
            if self.san is not None:
                self.san.complete_iteration(i)
            if i + 1 < node.extent:
                issue(i + 1)
            for dma in dmas:
                self._read_phase[dma.spm] = i % 2
            self.execute(node.body, {**env, node.var: i}, dma_ids)

    # --- DMA -------------------------------------------------------------------
    def _exec_dma_sync(self, node: DmaCgNode, env: Dict[str, int]) -> None:
        cost, payload, paid = self._dma_cost(node, env)
        start = max(self.now, self.dma_free)
        end = start + cost
        self.now = end
        self.dma_free = end
        if node.direction == MEM_TO_SPM:
            self._dma_move_in(node, env, phase=0)
            self._read_phase[node.spm] = 0
            arrow = f"{node.access.buffer}->spm:{node.spm}"
        else:
            self._dma_move_out(node, env)
            arrow = f"spm:{node.spm}->{node.access.buffer}"
        self.trace.add(
            "dma", start, end, detail=arrow,
            bytes_moved=payload, waste_bytes=paid - payload,
        )

    def _access_offsets(
        self, access: TileAccess, env: Dict[str, int]
    ) -> List[int]:
        """Evaluated offsets of ``access``, bounds-checked against its
        tensor's storage shape."""
        offs = []
        shape = self.ck.storage_shapes[access.buffer]
        for d, (off_expr, length) in enumerate(access.dims):
            off = off_expr.evaluate(env)
            if off < 0 or off + length > shape[d]:
                raise CodegenError(
                    f"access [{off}, {off + length}) outside dim {d} "
                    f"(extent {shape[d]}) of {access.buffer!r}"
                )
            offs.append(off)
        return offs

    def _access_slices(
        self, access: TileAccess, env: Dict[str, int]
    ) -> Tuple[Tuple[slice, ...], Tuple[int, ...]]:
        offs = self._access_offsets(access, env)
        slices = tuple(
            slice(off, off + length)
            for off, (_, length) in zip(offs, access.dims)
        )
        return slices, tuple(offs)

    def _dma_move_in(
        self, node: DmaCgNode, env: Dict[str, int], phase: int
    ) -> None:
        if self.san is not None:
            offs = [expr.evaluate(env) for expr, _ in node.access.dims]
            self.san.dma_in(node, offs, phase)
        slices, _ = self._access_slices(node.access, env)
        tile = self._spm[node.spm][phase % len(self._spm[node.spm])]
        # zero first: boundary/padded tiles rely on clean pad lanes
        tile[...] = 0.0
        region = tuple(slice(0, length) for length in node.access.lengths)
        tile[region] = self._storage[node.access.buffer][slices]

    def _dma_move_out(self, node: DmaCgNode, env: Dict[str, int]) -> None:
        if self.san is not None:
            offs = [expr.evaluate(env) for expr, _ in node.access.dims]
            self.san.dma_out(node, offs, self._read_phase[node.spm])
        slices, _ = self._access_slices(node.access, env)
        tile = self._spm[node.spm][self._read_phase[node.spm]]
        region = tuple(slice(0, length) for length in node.access.lengths)
        self._storage[node.access.buffer][slices] = tile[region]

    def _dma_cost(
        self, node: DmaCgNode, env: Dict[str, int]
    ) -> Tuple[float, int, int]:
        """Transaction-accurate cycles of one CG-level transfer.

        Memoized per (node, start address modulo the DRAM transaction):
        shifting a transfer by whole transactions shifts every paid
        transaction with it, so their number -- and the cost -- stays.
        """
        access = node.access
        shape = self.ck.storage_shapes[access.buffer]
        base_elem = 0
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        for (off_expr, _), stride in zip(access.dims, strides):
            base_elem += off_expr.evaluate(env) * stride
        cfg = self.cfg
        base = self._buffers[access.buffer].addr + base_elem * cfg.dtype_bytes
        key = (id(node), base % cfg.dram_transaction_bytes)
        cost = self._dma_memo.get(key)
        if cost is None:
            cost = self._dma_memo[key] = self._transfer_cost(node, base)
        return cost

    def _transfer_cost(
        self, node: DmaCgNode, base: int
    ) -> Tuple[float, int, int]:
        """(cycles, payload bytes, paid bytes) of ``node``'s transfer
        starting at byte address ``base``: Eq. (1) over the
        transaction-rounded per-CPE slices of every block at its real
        address."""
        cfg = self.cfg
        access = node.access
        flat = flatten_access(access.lengths, self.ck.storage_shapes[access.buffer])
        eb = cfg.dtype_bytes
        paid = paid_bytes_at(node.geometry, base + flat.chunk_offsets() * eb, cfg)
        return transfer_cycles(node.geometry, paid, cfg), flat.elems * eb, paid

    # --- compute ---------------------------------------------------------------
    def _view_dims(
        self, name: str, lens: Sequence[int], mat_map
    ) -> Tuple[int, int]:
        """Matrix dims of a GEMM operand view, checked against the SPM
        allocation it views."""
        shape = self.ck.kernel.alloc(name).shape
        if len(lens) != len(shape):
            raise CodegenError(
                f"gemm views {name!r} with rank {len(lens)} but buffer "
                f"has rank {len(shape)}"
            )
        for length, cap in zip(lens, shape):
            if length > cap:
                raise CodegenError(
                    f"gemm view of {name!r} exceeds its SPM allocation "
                    f"({tuple(lens)} > {shape})"
                )
        rows, cols = mat_map
        return (
            math.prod(lens[i] for i in rows),
            math.prod(lens[i] for i in cols),
        )

    def _gemm_cycles(self, node: GemmOpNode) -> float:
        """Cycles of one GEMM call after its shape checks; both depend
        on the node alone, so they run once per node of the kernel."""
        cycles = self._node_cycles.get(id(node))
        if cycles is not None:
            return cycles
        ar, ac = self._view_dims(node.a_spm, node.a_lens, node.a_map)
        br, bc = self._view_dims(node.b_spm, node.b_lens, node.b_map)
        if (ar, ac) != (node.m, node.k) or (br, bc) != (node.k, node.n):
            raise CodegenError(
                f"gemm dims mismatch: A{ar, ac} B{br, bc} vs "
                f"(M={node.m}, K={node.k}, N={node.n})"
            )
        cr, cc = self._view_dims(node.c_spm, node.c_lens, node.c_map)
        if (cr, cc) != (node.m, node.n):
            raise CodegenError(f"gemm C dims mismatch: {(cr, cc)} vs {(node.m, node.n)}")
        cost = kernel_cycles(node.m, node.n, node.k, node.variant, self.cfg)
        self._node_cycles[id(node)] = cost.total
        return cost.total

    def _matrix_view(self, name: str, lens: Sequence[int], mat_map):
        """The operand tile of ``name`` in (rows..., cols...) order."""
        tile = self._spm[name][self._read_phase[name]]
        region = tile[tuple(slice(0, l) for l in lens)]
        rows, cols = mat_map
        return region.transpose(tuple(rows) + tuple(cols))

    def _gemm_data(self, node: GemmOpNode) -> None:
        a = self._matrix_view(node.a_spm, node.a_lens, node.a_map)
        b = self._matrix_view(node.b_spm, node.b_lens, node.b_map)
        result = np.ascontiguousarray(a).reshape(node.m, node.k) @ (
            np.ascontiguousarray(b).reshape(node.k, node.n)
        )
        # a view into the C tile: writing through it updates the tile
        c_t = self._matrix_view(node.c_spm, node.c_lens, node.c_map)
        if node.accumulate:
            c_t += result.reshape(c_t.shape)
        else:
            c_t[...] = result.reshape(c_t.shape)

    def _exec_gemm(self, node: GemmOpNode) -> None:
        if self.san is not None:
            self.san.gemm(
                node,
                a_phase=self._read_phase[node.a_spm],
                b_phase=self._read_phase[node.b_spm],
                c_phase=self._read_phase[node.c_spm],
            )
        cycles = self._gemm_cycles(node)
        self._gemm_data(node)
        self.trace.add(
            "gemm", self.now, self.now + cycles,
            detail=node.variant.name, flops=node.flops,
        )
        self.now += cycles

    def _zero_data(self, node: ZeroSpmNode) -> None:
        # Buffers filled by mem->SPM DMA are zeroed at transfer time
        # (see _dma_move_in), so their ZeroSpm is a timing-only pad
        # charge: functionally clearing them here would race the
        # prefetched phases of a pipelined loop.  Accumulator buffers
        # (never DMA-in targets) are genuinely cleared.
        functional = node.spm not in self._dma_in_targets
        if self.san is not None:
            self.san.zero(node, functional)
        if functional:
            for arr in self._spm[node.spm]:
                arr[...] = 0.0

    def _exec_zero(self, node: ZeroSpmNode) -> None:
        self._zero_data(node)
        cycles = self._node_cycles.get(id(node))
        if cycles is None:
            alloc = self.ck.kernel.alloc(node.spm)
            per_cpe_elems = math.ceil(alloc.elems / self.cfg.cpes_per_cg)
            cycles = math.ceil(per_cpe_elems / self.cfg.vector_lanes) + 10
            self._node_cycles[id(node)] = cycles
        self.trace.add("gemm", self.now, self.now + cycles, detail=f"zero:{node.spm}")
        self.now += cycles


class _TimingState(_ExecState):
    """The data-free interpreter behind :meth:`CompiledKernel.time_only`.

    Tensors get their main-memory addresses (DMA costs depend on them)
    but no contents; there are no SPM tiles, so DMA transfers only run
    their bounds check and GEMM/zero nodes only their shape checks and
    cycle counts.  Never sanitized: the sanitizer's shadow state tracks
    the functional data movement this class skips.
    """

    def _bind(self, feeds: Dict[str, np.ndarray]) -> None:
        for name, spec in self.ck.compute.tensors.items():
            self._buffers[name] = self.memory.alloc(
                name, self.ck.storage_shapes[name]
            )
            if spec.role != ROLE_OUTPUT:
                self._feed(feeds, name)

    def _dma_move_in(
        self, node: DmaCgNode, env: Dict[str, int], phase: int
    ) -> None:
        self._access_offsets(node.access, env)

    def _dma_move_out(self, node: DmaCgNode, env: Dict[str, int]) -> None:
        self._access_offsets(node.access, env)

    def _gemm_data(self, node: GemmOpNode) -> None:
        pass

    def _zero_data(self, node: ZeroSpmNode) -> None:
        pass

"""Tests for the vector ISA helpers."""

import pytest

from repro.errors import PipelineError
from repro.machine import vector as V


class TestBuilders:
    def test_load_vector(self):
        ins = V.load_vector("v0", "ptr")
        assert ins.op == "vldd" and ins.dst == "v0" and ins.srcs == ("ptr",)

    def test_store_vector_has_no_dst(self):
        ins = V.store_vector("v0", "ptr")
        assert ins.op == "vstd" and ins.dst is None
        assert "v0" in ins.srcs

    def test_bcast_vector_axes(self):
        assert V.load_bcast_vector("v", "p", "row").op == "vlddr"
        assert V.load_bcast_vector("v", "p", "col").op == "vlddc"
        with pytest.raises(PipelineError):
            V.load_bcast_vector("v", "p", "diag")

    def test_bcast_scalar_axes(self):
        assert V.load_bcast_scalar("v", "p", "row").op == "vldder"
        assert V.load_bcast_scalar("v", "p", "col").op == "vlddec"
        with pytest.raises(PipelineError):
            V.load_bcast_scalar("v", "p", "x")

    def test_vmad_reads_accumulator(self):
        ins = V.vmad("acc", "a", "b")
        assert ins.dst == "acc"
        assert "acc" in ins.srcs  # RAW on the accumulator itself

    def test_loop_control_is_two_ops(self):
        ctrl = V.loop_control("k")
        assert len(ctrl) == 2
        assert all(i.op == "iop" for i in ctrl)


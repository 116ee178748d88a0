"""Tests for the ``python -m repro`` command-line interface."""

import pytest

import repro.__main__ as cli
from repro.harness.scales import Scale

TINY = Scale(
    name="tiny", spatial_scale=16, gemm_scale=16, batches=(32,),
    max_layers=1, max_configs=1, quick=True, blackbox_limit=4,
    max_flops=1e9,
)


class TestTables:
    def test_every_experiment_is_dispatchable(self):
        for name in cli.EXPERIMENTS:
            gen = cli._tables(name, TINY)
            assert gen is not None

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            list(cli._tables("fig99", TINY))

    def test_fig10_renders(self, capsys):
        rc = cli.main(["fig10", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert "paper:" in out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig5", "--scale", "enormous"])

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_dump_ir_prints_passes_to_stderr(self, capsys):
        from repro.passes import set_dump_ir

        try:
            rc = cli.main(["fig10", "--scale", "smoke", "--dump-ir"])
            assert rc == 0
            captured = capsys.readouterr()
            assert "IR after pass" in captured.err
            assert "IR after pass" not in captured.out
        finally:
            set_dump_ir(None)

    def test_dump_ir_filters_to_named_pass(self, capsys):
        from repro.passes import set_dump_ir

        try:
            rc = cli.main(["fig10", "--scale", "smoke", "--dump-ir", "prefetch"])
            assert rc == 0
            err = capsys.readouterr().err
            assert "IR after pass 'prefetch'" in err
            assert "build-loop-nest" not in err
        finally:
            set_dump_ir(None)

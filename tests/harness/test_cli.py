"""Tests for the ``python -m repro`` command-line interface."""

import pytest

import repro.__main__ as cli
from repro.harness import experiments as E
from repro.harness.report import Table
from repro.harness.scales import Scale
from repro.options import current

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
        rc = cli.main(["fig10", "--scale", "smoke", "--dump-ir"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "IR after pass" in captured.err
        assert "IR after pass" not in captured.out

    def test_all_runs_the_versatility_sweep_once(self, monkeypatch, capsys):
        """``all`` renders Tab. 1 and Fig. 8 from one sweep."""
        calls = []

        class Sweep:
            def tab1(self):
                return Table("tab1 stub", ["x"])

            def fig8(self):
                return Table("fig8 stub", ["x"])

        def sweep(scale):
            calls.append(scale)
            return Sweep()

        monkeypatch.setattr(E, "tab1_fig8_versatility", sweep)
        monkeypatch.setattr(cli, "EXPERIMENTS", ("tab1", "fig8"))
        assert cli.main(["all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "tab1 stub" in out and "fig8 stub" in out
        assert len(calls) == 1

    def test_dump_ir_filters_to_named_pass(self, capsys):
        rc = cli.main(["fig10", "--scale", "smoke", "--dump-ir", "prefetch"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "IR after pass 'prefetch'" in err
        assert "build-loop-nest" not in err


FLAGS = ["--no-prune", "--sanitize", "--validate", "winner", "--dump-ir"]


class TestOptionsScope:
    """``main()`` installs its flags for its own run only: a host
    process calling it keeps its options afterwards."""

    def test_restored_on_return(self, tmp_path, monkeypatch, capsys):
        seen = []

        def tables(name, scale, sweeps):
            seen.append(current())
            return iter(())

        monkeypatch.setattr(cli, "_tables", tables)
        before = current()
        argv = ["fig10", *FLAGS, "--eval-cache", str(tmp_path / "ev.json"),
                "--inject-faults", "seed=1,crash=0.1"]
        assert cli.main(argv) == 0
        (inside,) = seen
        assert (inside.prune, inside.sanitize, inside.validate) == (
            False, True, "winner",
        )
        assert inside.dump_ir.spec == "all"
        assert inside.eval_store is not None and inside.faults is not None
        assert current() is before

    def test_restored_on_system_exit(self, monkeypatch, capsys):
        def tables(name, scale, sweeps):
            assert current().prune is False
            raise SystemExit("stop")

        monkeypatch.setattr(cli, "_tables", tables)
        before = current()
        with pytest.raises(SystemExit):
            cli.main(["fig10", *FLAGS])
        assert current() is before

    def test_rejected_flags_install_nothing(self, capsys):
        before = current()
        with pytest.raises(SystemExit):
            cli.main(["fig10", *FLAGS, "--inject-faults", "bogus=1"])
        assert current() is before

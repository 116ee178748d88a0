"""Smoke tests for the experiment drivers (tiny custom scale)."""

import pytest

from repro.autotuner import tune_with_model
from repro.options import use
from repro.harness import experiments as E
from repro.ops import ConvParams, conv_implicit
from repro.harness.report import Table, speedup_summary
from repro.harness.scales import SCALES, Scale, get_scale
from repro.errors import WorkloadError

TINY = Scale(
    name="tiny",
    spatial_scale=16,
    gemm_scale=16,
    batches=(1, 32),
    max_layers=1,
    max_configs=2,
    quick=True,
    blackbox_limit=6,
    max_flops=2e9,
)


class TestScales:
    def test_known_scales(self):
        for name in ("smoke", "default", "full"):
            assert get_scale(name).name == name

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_unknown_scale(self):
        with pytest.raises(WorkloadError):
            get_scale("gigantic")

    def test_scales_monotone(self):
        assert SCALES["smoke"].spatial_scale >= SCALES["default"].spatial_scale
        assert SCALES["default"].spatial_scale >= SCALES["full"].spatial_scale


class TestReport:
    def test_table_rendering(self):
        t = Table("T", ["a", "b"])
        t.add(1, 2.5)
        t.add("x", 0.001)
        t.note("note")
        text = t.render()
        assert "T" in text and "note" in text
        assert "0.001" in text

    def test_row_arity_checked(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_speedup_summary(self):
        s = speedup_summary([2.0, 1.5, 0.8])
        assert s["cases"] == 3
        assert s["faster"] == 2 and s["slower"] == 1
        assert s["avg_gain"] == pytest.approx(0.75)
        assert s["avg_loss"] == pytest.approx(0.2)
        assert s["best"] == 2.0

    def test_speedup_summary_empty(self):
        s = speedup_summary([])
        assert s["cases"] == 0 and s["geomean"] == 0.0


class TestDrivers:
    def test_fig5_rows_and_table(self):
        res = E.fig5_implicit_conv(scale=TINY, networks=("vgg16",))
        assert res.rows
        text = res.table().render()
        assert "implicit CONV" in text
        # batch-1 rows exist with no baseline
        assert any(r.batch == 1 and r.speedup is None for r in res.rows)

    def test_fig6_table(self):
        res = E.fig6_winograd_conv(scale=TINY, networks=("vgg16",))
        assert res.rows
        assert all(s > 0 for s in res.speedups())

    def test_fig7_table(self):
        res = E.fig7_explicit_conv(scale=TINY, networks=("vgg16",))
        assert res.rows

    def test_tab1_fig8(self):
        res = E.tab1_fig8_versatility(scale=TINY, methods=("winograd",))
        assert res.rows
        assert "Tab. 1" in res.tab1().render()
        assert "Fig. 8" in res.fig8().render()
        assert all(0 < r.swatop_eff < 1.5 for r in res.rows)

    def test_tab2(self):
        res = E.tab2_gemm(scale=TINY)
        assert res.rows
        assert {r.aligned for r in res.rows} == {True, False}
        assert "Tab. 2" in res.table().render()

    def test_tab3(self):
        res = E.tab3_tuning_time(scale=TINY, networks=("vgg16",))
        assert res.rows
        assert all(r.speedup > 1 for r in res.rows)
        # the silicon column charges simulated kernel time, not host time
        assert all(r.blackbox_silicon_seconds > 0 for r in res.rows)
        assert "bb silicon" in res.table().render()

    def test_tab3_blackbox_scale_ignores_pruning(self):
        # the black-box arm is scaled to the legal space, which must not
        # depend on how much the model arm's search prunes
        scales = {}
        for prune in (True, False):
            with use(prune=prune):
                res = E.tab3_tuning_time(scale=TINY, networks=("vgg16",))
            scales[prune] = [r.blackbox_scale for r in res.rows]
        assert scales[True] == scales[False]
        assert all(s >= 1.0 for s in scales[True])

    def test_legal_strategies_matches_exhaustive_tuning(self):
        params = ConvParams(batch=4, ni=16, no=32, ri=6, ci=6, pad=1)
        compute = conv_implicit.make_compute(params)
        space = conv_implicit.make_space(params, quick=True)
        exhaustive = tune_with_model(compute, space, prune=False, run_best=False)
        assert E.legal_strategies(compute, space) == exhaustive.evaluated

    def test_fig9(self):
        res = E.fig9_model_accuracy(scale=TINY)
        assert res.rows
        assert all(0.5 < r.ratio <= 1.0 + 1e-9 for r in res.rows)

    def test_fig10(self):
        res = E.fig10_prefetch(scale=TINY, count=2)
        assert res.rows
        assert all(r.improvement > -0.05 for r in res.rows)

    def test_fig11(self):
        res = E.fig11_padding(scale=TINY, count=2)
        assert res.rows
        for r in res.rows:
            assert r.traditional_overhead > r.lightweight_overhead

"""Tests for the runtime layer: kernel cache, library, network runs."""

import numpy as np
import pytest

from repro.dsl.schedule import ScheduleStrategy
from repro.ops import ConvParams, conv2d_reference
from repro.runtime import (
    AtopLibrary,
    CacheError,
    KernelCache,
    TunedEntry,
    run_network,
)


def sample_entry():
    return TunedEntry(
        strategy=ScheduleStrategy(
            {"tile:M": 64, "order": ("M", "N", "K"), "vec_dim": "M"}
        ),
        predicted_cycles=123.0,
        measured_cycles=150.0,
    )


class TestKernelCache:
    def test_put_get(self):
        c = KernelCache()
        c.put("k", sample_entry())
        assert "k" in c
        got = c.get("k")
        assert got is not None and got.measured_cycles == 150.0
        assert c.hits == 1

    def test_miss_counting(self):
        c = KernelCache()
        assert c.get("nope") is None
        assert c.misses == 1

    def test_json_roundtrip(self, tmp_path):
        c = KernelCache()
        c.put("gemm:64x64x64", sample_entry())
        path = tmp_path / "cache.json"
        c.save(path)
        loaded = KernelCache.load(path)
        entry = loaded.get("gemm:64x64x64")
        assert entry.strategy.decisions == sample_entry().strategy.decisions
        assert entry.strategy["order"] == ("M", "N", "K")  # tuple preserved
        assert entry.predicted_cycles == 123.0

    def test_malformed_entry(self):
        with pytest.raises(CacheError):
            TunedEntry.from_json({"nope": 1})
        good = sample_entry().to_json()
        for field, value in [
            ("predicted_cycles", "abc"),
            ("measured_cycles", [1]),
            ("measured_cycles", True),
            ("decisions", [1]),
        ]:
            with pytest.raises(CacheError):
                TunedEntry.from_json({**good, field: value})

    def test_counters_survive_roundtrip(self, tmp_path):
        c = KernelCache()
        c.put("k", sample_entry())
        c.get("k")
        c.get("k")
        c.get("nope")
        path = tmp_path / "cache.json"
        c.save(path)
        loaded = KernelCache.load(path)
        assert loaded.hits == 2
        assert loaded.misses == 1

    def test_old_file_without_counters_loads_zeroed(self, tmp_path):
        c = KernelCache()
        c.put("k", sample_entry())
        path = tmp_path / "cache.json"
        c.save(path)
        import json

        payload = json.loads(path.read_text())
        del payload["hits"], payload["misses"]
        path.write_text(json.dumps(payload))
        loaded = KernelCache.load(path)
        assert loaded.hits == 0 and loaded.misses == 0
        assert loaded.get("k") is not None

    def test_tolerant_load_quarantines_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        loaded = KernelCache.load(path)
        assert len(loaded) == 0
        sidecar = tmp_path / "bad.json.corrupt"
        assert loaded.quarantined_path == sidecar
        assert sidecar.read_text() == "not json {"  # evidence preserved
        assert not path.exists()

    def test_tolerant_load_skips_malformed_entries(self, tmp_path):
        c = KernelCache()
        c.put("good", sample_entry())
        path = tmp_path / "cache.json"
        c.save(path)
        import json

        payload = json.loads(path.read_text())
        payload["entries"]["broken"] = {"nope": 1}
        path.write_text(json.dumps(payload))
        loaded = KernelCache.load(path)
        assert loaded.skipped_entries == 1
        assert loaded.get("good") is not None

    def test_tolerant_load_ignores_version_mismatch(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text('{"version": 99, "entries": {}}')
        loaded = KernelCache.load(path)
        assert len(loaded) == 0
        assert path.exists()  # another code version may still want it

    def test_save_is_atomic(self, tmp_path):
        c = KernelCache()
        c.put("k", sample_entry())
        path = tmp_path / "nested" / "cache.json"
        c.save(path)  # creates the parent directory
        assert KernelCache.load(path).get("k") is not None
        assert not list(path.parent.glob("*.tmp"))  # no temp litter

    def test_library_survives_corrupt_cache_file(self, tmp_path):
        path = tmp_path / "library.json"
        path.write_text("truncated {")
        lib = AtopLibrary(cache_path=path)  # must not raise
        assert len(lib.cache) == 0
        assert (tmp_path / "library.json.corrupt").exists()

    def test_library_leaves_unreadable_cache_path_in_place(self, tmp_path):
        """A path that cannot be read (here a directory) is not corrupt:
        it must not be renamed away from its owner."""
        path = tmp_path / "library"
        path.mkdir()
        lib = AtopLibrary(cache_path=path)
        assert len(lib.cache) == 0
        assert path.is_dir()
        assert lib.cache.quarantined_path is None
        assert not (tmp_path / "library.corrupt").exists()

    def test_duplicate_put_same_strategy_ok(self):
        c = KernelCache()
        c.put("k", sample_entry())
        refreshed = sample_entry()
        refreshed.measured_cycles = 99.0
        c.put("k", refreshed)  # same decisions: allowed
        assert c._entries["k"].measured_cycles == 99.0

    def test_duplicate_put_different_strategy_rejected(self):
        c = KernelCache()
        c.put("k", sample_entry())
        other = TunedEntry(
            strategy=ScheduleStrategy(
                {"tile:M": 128, "order": ("M", "N", "K"), "vec_dim": "M"}
            )
        )
        with pytest.raises(CacheError):
            c.put("k", other)
        c.put("k", other, overwrite=True)
        assert c._entries["k"].strategy["tile:M"] == 128


class TestAtopLibrary:
    @pytest.fixture
    def case(self):
        params = ConvParams(batch=8, ni=16, no=16, ri=8, ci=8,
                            kr=3, kc=3, pad=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        return params, x, w

    def test_first_call_tunes_then_caches(self, case):
        params, x, w = case
        lib = AtopLibrary(quick=True)
        r1 = lib.conv2d(x, w, params)
        assert lib.stats.tuned == 1
        r2 = lib.conv2d(x, w, params)
        assert lib.stats.cache_hits == 1
        np.testing.assert_allclose(r1.output, r2.output, rtol=1e-5)
        # cached run reproduces the same simulated time
        assert r2.cycles == pytest.approx(r1.cycles, rel=1e-9)

    def test_results_correct(self, case):
        params, x, w = case
        lib = AtopLibrary(quick=True)
        run = lib.conv2d(x, w, params)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )

    def test_method_override(self, case):
        params, x, w = case
        lib = AtopLibrary(quick=True)
        run = lib.conv2d(x, w, params, method="implicit")
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )
        assert any(k.startswith("conv:implicit") for k in lib.cache.keys())

    def test_gemm_cache(self):
        lib = AtopLibrary(quick=True)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        r1 = lib.gemm(a, b)
        r2 = lib.gemm(a, b)
        assert lib.stats.tuned == 1 and lib.stats.cache_hits == 1
        np.testing.assert_allclose(r1.output, a @ b, rtol=1e-4, atol=1e-3)
        assert r2.cycles == pytest.approx(r1.cycles)

    def test_persistent_cache_survives_restart(self, case, tmp_path):
        params, x, w = case
        path = tmp_path / "kernels.json"
        lib1 = AtopLibrary(quick=True, cache_path=path)
        lib1.conv2d(x, w, params)
        assert path.exists()
        lib2 = AtopLibrary(quick=True, cache_path=path)
        lib2.conv2d(x, w, params)
        assert lib2.stats.tuned == 0
        assert lib2.stats.cache_hits == 1


class TestStridedThroughLibrary:
    def test_strided_conv_dispatches_and_is_correct(self):
        params = ConvParams(batch=4, ni=16, no=16, ri=14, ci=14,
                            kr=3, kc=3, pad=1, stride=2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        lib = AtopLibrary(quick=True)
        run = lib.conv2d(x, w, params)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )

    def test_strided_repeat_call_hits_cache(self):
        params = ConvParams(batch=4, ni=16, no=16, ri=14, ci=14,
                            kr=3, kc=3, pad=1, stride=2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        lib = AtopLibrary(quick=True)
        first = lib.conv2d(x, w, params)
        assert lib.stats.tuned == 1
        assert any(k.startswith("conv:strided:") for k in lib.cache.keys())
        second = lib.conv2d(x, w, params)
        assert lib.stats.tuned == 1  # no re-tuning
        assert lib.stats.cache_hits == 1
        np.testing.assert_array_equal(first.output, second.output)

    def test_strided_layers_in_network_use_tensorized_path(self):
        res = run_network("resnet", batch=8, scale=16, max_layers=4)
        methods = {l.spec.name: l.method for l in res.layers}
        assert methods["conv1"] == "mpe-fallback"        # Ni=3 stem
        assert methods["res3_down"] == "strided-implicit"


class TestNetworkRuns:
    def test_vgg_prefix_runs_and_times(self):
        res = run_network("vgg16", batch=8, scale=16, max_layers=3)
        assert len(res.layers) == 3
        assert res.total_cycles > 0
        assert all(l.cycles > 0 for l in res.layers)
        assert "vgg16" in res.summary()

    def test_strided_layers_fall_back(self):
        res = run_network("resnet", batch=8, scale=16, max_layers=3)
        methods = {l.method for l in res.layers}
        assert "mpe-fallback" in methods  # the 7x7/s2 stem
        assert res.fallback_fraction() > 0

    def test_library_reuse_across_layers(self):
        lib = AtopLibrary(quick=True)
        run_network("vgg16", batch=8, library=lib, scale=16, max_layers=4)
        first_tuned = lib.stats.tuned
        run_network("vgg16", batch=8, library=lib, scale=16, max_layers=4)
        assert lib.stats.tuned == first_tuned  # all layers cached

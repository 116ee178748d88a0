"""The persistent evaluation cache and its MemoizingEvaluator tier."""

import json
import shutil
from pathlib import Path

import pytest

from repro.autotuner import tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import (
    CandidatePipeline,
    MemoizingEvaluator,
    PersistentEvalStore,
    SimulatorEvaluator,
    evaluate_batch,
)
from repro.engine import evaluators
from repro.engine.evalcache import EVAL_CACHE_VERSION
from repro.options import current, use
from repro.persist import _tree_digest, code_salt, quarantine_corrupt
from repro.runtime import KernelCache

from ..scheduler.test_lower import gemm_cd


@pytest.fixture
def candidate():
    cd = gemm_cd(64, 64, 64)
    sp = ScheduleSpace(cd)
    sp.split("M", [32])
    sp.split("N", [32])
    sp.split("K", [32])
    return next(CandidatePipeline(cd, sp).candidates())


@pytest.fixture
def no_default_store():
    """Isolate tests from any run-wide eval cache."""
    with use(eval_store=None):
        yield


class TestPersistentEvalStore:
    def test_roundtrip_across_reload(self, tmp_path, candidate, no_default_store):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(
            SimulatorEvaluator(), store={}, disk=store
        )
        first = memo.evaluate(candidate)
        store.flush()
        assert path.exists()

        reloaded = PersistentEvalStore(path)
        assert len(reloaded) == 1
        sim = SimulatorEvaluator()
        memo2 = MemoizingEvaluator(sim, store={}, disk=reloaded)
        second = memo2.evaluate(candidate)
        assert sim.executions == 0  # answered from disk, not re-simulated
        assert second.memoized
        assert second.measured_cycles == first.measured_cycles
        assert reloaded.hits == 1 and memo2.disk_hits == 1

    def test_salt_mismatch_discards_store(self, tmp_path, candidate, no_default_store):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        MemoizingEvaluator(
            SimulatorEvaluator(), store={}, disk=store
        ).evaluate(candidate)
        store.flush()
        raw = json.loads(path.read_text())
        assert raw["salt"] == code_salt()
        assert len(PersistentEvalStore(path)) == 1

        raw["salt"] = "other code"
        path.write_text(json.dumps(raw))
        stale = PersistentEvalStore(path)
        assert len(stale) == 0
        assert path.exists()  # the other code may still want it

    def test_version_mismatch_discards_store(self, tmp_path, no_default_store):
        path = tmp_path / "scores.json"
        payload = {
            "version": EVAL_CACHE_VERSION + 1,
            "salt": code_salt(),
            "entries": {"deadbeef": [1.0, 2.0]},
        }
        path.write_text(json.dumps(payload))
        assert len(PersistentEvalStore(path)) == 0

    def test_corrupt_file_starts_empty(self, tmp_path, no_default_store):
        path = tmp_path / "scores.json"
        path.write_text("{not json")
        store = PersistentEvalStore(path)
        assert len(store) == 0

    def test_unsalvageable_file_quarantined(self, tmp_path, no_default_store):
        path = tmp_path / "scores.json"
        path.write_text("{not json")
        store = PersistentEvalStore(path)
        sidecar = tmp_path / "scores.json.corrupt"
        assert store.quarantined_path == sidecar
        assert sidecar.read_text() == "{not json"  # evidence preserved
        assert not path.exists()
        assert "corrupt original" in store.describe()

    def test_truncated_file_recovers_valid_prefix(
        self, tmp_path, candidate, no_default_store
    ):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(SimulatorEvaluator(), store={}, disk=store)
        evaluation = memo.evaluate(candidate)
        # pad with synthetic entries so a truncation point falls
        # between entries, then tear the tail off the file
        for i in range(20):
            store.put(("synthetic", i), evaluation)
        store.flush()
        data = path.read_text()
        path.write_text(data[: int(len(data) * 0.6)])

        recovered = PersistentEvalStore(path)
        assert recovered.recovered
        assert 0 < len(recovered) < 21
        assert "recovered" in recovered.describe()
        # the real entry survives: it was written first
        sim = SimulatorEvaluator()
        MemoizingEvaluator(sim, store={}, disk=recovered).evaluate(candidate)
        assert sim.executions == 0  # answered from the recovered prefix
        # recovery marks the store dirty so the next flush rewrites a
        # clean file
        recovered.flush()
        clean = PersistentEvalStore(path)
        assert not clean.recovered
        assert len(clean) == len(recovered)

    def test_malformed_entries_skipped_individually(
        self, tmp_path, no_default_store
    ):
        path = tmp_path / "scores.json"
        payload = {
            "version": EVAL_CACHE_VERSION,
            "salt": code_salt(),
            "entries": {
                "good": [1.0, 2.0, None],
                "bad-shape": [1.0],
                "bad-types": ["x", "y", "z"],
                "bad-report": [1.0, 2.0, "not a dict"],
            },
        }
        path.write_text(json.dumps(payload))
        store = PersistentEvalStore(path)
        assert len(store) == 1
        assert store.skipped_entries == 3
        assert "3 malformed" in store.describe()
        store.flush()  # rewrites without the bad entries
        assert len(PersistentEvalStore(path)) == 1

    def test_flush_is_atomic_and_idempotent(self, tmp_path, candidate, no_default_store):
        path = tmp_path / "nested" / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(SimulatorEvaluator(), store={}, disk=store)
        memo.evaluate(candidate)
        store.flush()
        mtime = path.stat().st_mtime_ns
        store.flush()  # clean: must not rewrite
        assert path.stat().st_mtime_ns == mtime
        assert not list(path.parent.glob("*.tmp"))  # no temp litter

    def test_reports_survive_the_disk_roundtrip(
        self, tmp_path, candidate, no_default_store
    ):
        """Harness drivers read ``result.report.cycles`` (and .seconds,
        .gflops) off warm runs, so the numeric report summary must come
        back from disk with the requesting evaluator's config."""
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(SimulatorEvaluator(), store={}, disk=store)
        original = memo.evaluate(candidate).report
        assert original is not None
        store.flush()

        sim = SimulatorEvaluator()
        hit = MemoizingEvaluator(
            sim, store={}, disk=PersistentEvalStore(path)
        ).evaluate(candidate)
        assert hit.report is not None
        assert hit.report.cycles == original.cycles
        assert hit.report.dma_cycles == original.dma_cycles
        assert hit.report.compute_cycles == original.compute_cycles
        assert hit.report.bytes_moved == original.bytes_moved
        assert hit.report.flops == original.flops
        assert hit.report.config is sim.config  # rebuilt, clock intact
        assert hit.report.seconds == original.seconds


class TestProcessWideDefault:
    def test_memoizer_picks_up_installed_cache(self, tmp_path, candidate):
        store = PersistentEvalStore(tmp_path / "scores.json")
        with use(eval_store=store):
            sim = SimulatorEvaluator()
            memo = MemoizingEvaluator(sim, store={})  # no explicit disk
            assert memo.disk is store
            memo.evaluate(candidate)
            memo.flush()

            fresh = SimulatorEvaluator()
            again = MemoizingEvaluator(fresh, store={})
            again.evaluate(candidate)
            assert fresh.executions == 0
        assert memo.disk is current().eval_store  # resolved at lookup

    def test_store_installed_after_a_warm_memo_banks_its_hits(
        self, tmp_path, monkeypatch
    ):
        """Shared-memo hits are written through to a store installed
        after the memo warmed, so a rerun from that store alone
        simulates nothing."""
        cd = gemm_cd(64, 64, 128)
        sp = ScheduleSpace(cd)
        sp.split("M", [16, 32, 64])
        sp.split("N", [16, 32, 64])
        sp.split("K", [32, 64, 128])
        monkeypatch.setattr(evaluators, "_SHARED_MEMO", {})
        with use(eval_store=None):
            cold = tune_with_model(cd, sp, top_k=2)
        path = tmp_path / "ev.json"
        with use(eval_store=PersistentEvalStore(path)):
            warm = tune_with_model(cd, sp, top_k=2)
        assert warm.metrics.execution.count == 0
        assert warm.metrics.memo_hits == cold.metrics.execution.count == 2
        assert len(PersistentEvalStore(path)) == 2

        monkeypatch.setattr(evaluators, "_SHARED_MEMO", {})
        with use(eval_store=PersistentEvalStore(path)):
            again = tune_with_model(cd, sp, top_k=2)
        assert again.metrics.execution.count == 0
        assert again.report.cycles == cold.report.cycles

    def test_explicit_none_disables_disk(self, tmp_path, candidate):
        with use(eval_store=PersistentEvalStore(tmp_path / "scores.json")):
            memo = MemoizingEvaluator(SimulatorEvaluator(), store={}, disk=None)
            assert memo.disk is None

    def test_batch_flushes_at_boundary(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        with use(eval_store=PersistentEvalStore(path)):
            memo = MemoizingEvaluator(SimulatorEvaluator(), store={})
            evaluate_batch([candidate], memo)
            assert path.exists()  # no explicit flush() needed

    def test_scope_exit_flushes_the_store(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        with use(eval_store=store):
            MemoizingEvaluator(SimulatorEvaluator(), store={}).evaluate(
                candidate
            )
            assert not path.exists()  # pending, not yet written
        assert path.exists()
        assert len(PersistentEvalStore(path)) == 1

    def test_scope_exit_flushes_on_exception(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        before = current()
        with pytest.raises(RuntimeError):
            with use(eval_store=PersistentEvalStore(path)):
                MemoizingEvaluator(SimulatorEvaluator(), store={}).evaluate(
                    candidate
                )
                raise RuntimeError("interrupted")
        assert current() is before
        assert len(PersistentEvalStore(path)) == 1


class TestQuarantineSidecars:
    def test_repeated_corruption_never_clobbers_evidence(self, tmp_path):
        """Each quarantine gets its own sidecar: ``.corrupt``,
        ``.corrupt.1``, ... -- a second corruption must not overwrite
        the first post-mortem."""
        path = tmp_path / "store.json"
        path.write_text("first corruption")
        s1 = quarantine_corrupt(path, "test")
        assert s1 == tmp_path / "store.json.corrupt"
        path.write_text("second corruption")
        s2 = quarantine_corrupt(path, "test")
        assert s2 == tmp_path / "store.json.corrupt.1"
        path.write_text("third corruption")
        s3 = quarantine_corrupt(path, "test")
        assert s3 == tmp_path / "store.json.corrupt.2"
        assert s1.read_text() == "first corruption"
        assert s2.read_text() == "second corruption"
        assert s3.read_text() == "third corruption"
        assert not path.exists()


# --- the shared document policy (repro.persist) --------------------------
def _write_json(path, raw):
    path.write_text(json.dumps(raw))


def _edit(path, change):
    raw = json.loads(path.read_text())
    change(raw)
    _write_json(path, raw)


class _EvalStoreDoc:
    """Adapter: write a valid two-entry document, load it, corrupt
    one entry -- the same verbs for each of the three document types."""

    name = "eval-store"

    @staticmethod
    def write(path):
        _write_json(path, {
            "version": EVAL_CACHE_VERSION,
            "salt": code_salt(),
            "entries": {"a": [1.0, 2.0, None], "b": [3.0, 4.0, None]},
        })

    @staticmethod
    def load(path):
        store = PersistentEvalStore(path)
        return len(store), store

    @staticmethod
    def break_entry(raw):
        raw["entries"]["c"] = ["abc", 1.0, None]


class _KernelCacheDoc:
    name = "kernel-cache"

    @staticmethod
    def write(path):
        from ..runtime.test_runtime import sample_entry

        cache = KernelCache()
        cache.put("a", sample_entry())
        cache.put("b", sample_entry())
        cache.save(path)

    @staticmethod
    def load(path):
        cache = KernelCache.load(path)
        return len(cache), cache

    @staticmethod
    def break_entry(raw):
        raw["entries"]["c"] = dict(raw["entries"]["a"], predicted_cycles="abc")


DOC_TYPES = [_EvalStoreDoc, _KernelCacheDoc]


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])  # tears the last entry


def _make_unreadable(path):
    path.unlink()
    path.mkdir()


def _bump_version(raw):
    raw["version"] += 1


def _change_salt(raw):
    raw["salt"] = "other code"


#: case -> (how to damage a valid file, per-type expected outcome
#: (entries loaded, recovered, skipped entries, quarantined))
CASES = {
    "valid": (None, {"*": (2, False, 0, False)}),
    "missing": (lambda p: p.unlink(), {"*": (0, False, 0, False)}),
    "unreadable": (_make_unreadable, {"*": (0, False, 0, False)}),
    "truncated": (_truncate, {"*": (1, True, 0, False)}),
    "garbage": (lambda p: p.write_bytes(b"\x00\xffnot json {"),
                {"*": (0, False, 0, True)}),
    "not-object": (lambda p: p.write_text("[1, 2, 3]"),
                   {"*": (0, False, 0, True)}),
    "wrong-version": (lambda p: _edit(p, _bump_version),
                      {"*": (0, False, 0, False)}),
    "wrong-salt": (lambda p: _edit(p, _change_salt), {
        "*": (0, False, 0, False),
        "kernel-cache": (2, False, 0, False),  # unsalted by design
    }),
    "malformed-entry": ("break_entry", {"*": (2, False, 1, False)}),
}


class TestDocumentPolicy:
    """Every persistence file type under the one repro.persist policy."""

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize(
        "doc", DOC_TYPES, ids=[d.name for d in DOC_TYPES]
    )
    def test_envelope(self, tmp_path, doc, case, no_default_store):
        damage, expected = CASES[case]
        entries, recovered, skipped, quarantined = expected.get(
            doc.name, expected["*"]
        )
        path = tmp_path / "doc.json"
        doc.write(path)
        if damage == "break_entry":
            _edit(path, doc.break_entry)
        elif damage is not None:
            damage(path)

        n, outcome = doc.load(path)
        assert n == entries
        sidecar = tmp_path / "doc.json.corrupt"
        assert sidecar.exists() == quarantined
        # only a quarantine moves the file; nothing else touches it
        assert path.exists() == (case != "missing" and not quarantined)
        if case == "unreadable":
            assert path.is_dir()
        if outcome is not None:
            assert outcome.recovered == recovered
            assert outcome.skipped_entries == skipped
            assert outcome.quarantined_path == (sidecar if quarantined else None)

    def test_parent_format_documents_load(self, tmp_path, no_default_store):
        """Literal files in the layout written before the envelope moved
        to repro.persist (salted ones carry the running code's salt)."""
        salt = code_salt()
        ev = tmp_path / "ev.json"
        ev.write_text(
            '{"version": 2, "salt": "%s", "entries": {'
            '"5f8071d632d7b6686a5973c77c55209f2b81e75fc8c686f076026d28320dc5cf":'
            ' [1200.0, null, null], '
            '"a72d571b7288508eab6ad3bc552794f7c6eae1a8e0ac92c58d2d3913e5d55197":'
            ' [null, 1500, null]}}' % salt
        )
        store = PersistentEvalStore(ev)
        first = store.get(("parent-format", 1))
        second = store.get(("parent-format", 2))
        assert (first.predicted_cycles, first.measured_cycles) == (1200.0, None)
        assert (second.predicted_cycles, second.measured_cycles) == (None, 1500)

        kc = tmp_path / "kernels.json"
        kc.write_text(
            '{"version": 1, "hits": 1, "misses": 1, "entries": {'
            '"gemm:64x64x64": {"decisions": {"tile:M": 64, "order": '
            '{"__tuple__": ["M", "N", "K"]}, "vec_dim": "M"}, '
            '"predicted_cycles": 123.0, "measured_cycles": 150.0, '
            '"validation_digest": "abc"}}}'
        )
        cache = KernelCache.load(kc)
        assert (cache.hits, cache.misses) == (1, 1)
        entry = cache.get("gemm:64x64x64")
        assert dict(entry.strategy.decisions) == {
            "tile:M": 64, "order": ("M", "N", "K"), "vec_dim": "M"
        }
        assert (entry.predicted_cycles, entry.measured_cycles) == (123.0, 150.0)
        assert entry.validation_digest == "abc"


class TestCodeSalt:
    def test_salt_digests_the_package_source(self, tmp_path):
        """The salt follows the source: one changed byte anywhere in a
        copy of the package changes it."""
        import repro

        src = Path(repro.__file__).parent
        tree = tmp_path / "repro"
        shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))
        assert _tree_digest(tree) == code_salt()
        target = tree / "autotuner" / "cost_model.py"
        data = bytearray(target.read_bytes())
        data[-1] ^= 1
        target.write_bytes(bytes(data))
        assert _tree_digest(tree) != code_salt()

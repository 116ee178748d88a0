"""The machine signature is built once per config and stored on it.

Caches whose values depend on instruction timing key on
``config_signature``; storing the tuple on the frozen config must not
change what it says: equal to a fresh build, distinct for configs that
differ only in their latency tables, and intact across pickling.
"""

import pickle
from dataclasses import fields, replace
from typing import Mapping

from repro.autotuner.calibrate import default_coeffs
from repro.baselines.swtvm import naive_k_step_cycles
from repro.dsl import ScheduleSpace
from repro.engine import MemoizingEvaluator, SimulatorEvaluator
from repro.machine.config import MachineConfig, config_signature, default_config
from repro.primitives.microkernel import (
    COL_MAJOR,
    KernelVariant,
    cycles_per_k_step,
)
from repro.scheduler import Candidate, lower_strategy

from ..scheduler.test_lower import gemm_cd


def fresh_signature(config: MachineConfig) -> tuple:
    """The signature built from the fields, bypassing any stored copy."""
    sig = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        sig.append((f.name, value))
    return tuple(sig)


def slow_vmad(base: MachineConfig) -> MachineConfig:
    return base.with_overrides(
        latencies={**base.latencies, "vmad": base.latencies["vmad"] + 32}
    )


def slow_loads(base: MachineConfig) -> MachineConfig:
    return base.with_overrides(
        latencies={
            **base.latencies,
            "vmad": base.latencies["vmad"] + 32,
            "vldd": base.latencies["vldd"] + 20,
        }
    )


class TestSignatureCache:
    def test_cached_equals_fresh(self):
        cfg = MachineConfig(dma_issue_cycles=31)
        first = config_signature(cfg)
        assert first == fresh_signature(cfg)
        # the second call answers from the stored tuple
        assert config_signature(cfg) is first
        assert config_signature(default_config()) == fresh_signature(
            default_config()
        )

    def test_copy_of_equal_fields_has_equal_signature(self):
        base = default_config()
        config_signature(base)
        assert config_signature(replace(base)) == config_signature(base)

    def test_latency_override_gets_distinct_signature(self):
        base = default_config()
        config_signature(base)  # stored before the override is made
        slow = slow_vmad(base)
        assert slow == base  # dataclass equality is latency-blind...
        assert config_signature(slow) != config_signature(base)  # ...this is not
        assert config_signature(slow) == fresh_signature(slow)

    def test_survives_pickle_round_trip(self):
        cfg = slow_vmad(default_config())
        sig = config_signature(cfg)
        clone = pickle.loads(pickle.dumps(cfg))
        assert config_signature(clone) == sig
        # a config pickled before its signature was stored builds it
        # on the other side
        unbuilt = MachineConfig(kernel_call_cycles=400)
        clone = pickle.loads(pickle.dumps(unbuilt))
        assert config_signature(clone) == fresh_signature(unbuilt)

    def test_equality_and_hash_ignore_stored_signature(self):
        a, b = MachineConfig(), MachineConfig()
        config_signature(a)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)


class TestMemoKeysSplitLatencyTables:
    """Every timing-dependent memo keeps configs apart that differ only
    in a latency table, with their signatures already stored."""

    def test_microkernel_memo(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        base = default_config()
        slow = slow_vmad(base)
        config_signature(base), config_signature(slow)
        assert cycles_per_k_step(v, slow) > cycles_per_k_step(v, base)

    def test_swtvm_memo(self):
        base = default_config()
        slow = slow_loads(base)
        config_signature(base), config_signature(slow)
        naive = naive_k_step_cycles(base)  # cached first, as a stale key would
        assert naive_k_step_cycles(slow) > naive

    def test_calibration_memo(self):
        base = default_config()
        slow = slow_vmad(base)
        config_signature(base), config_signature(slow)
        assert default_coeffs(slow) != default_coeffs(base)

    def test_memoizing_evaluator_key(self):
        cd = gemm_cd(64, 64, 64)
        sp = ScheduleSpace(cd)
        sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
        strat = sp.strategy()
        cand = Candidate(strat, lower_strategy(cd, strat), cd)
        base = default_config()
        slow = slow_vmad(base)
        config_signature(base), config_signature(slow)
        keys = {
            MemoizingEvaluator(
                SimulatorEvaluator(config=cfg), store={}, disk=None
            ).key(cand)
            for cfg in (base, slow)
        }
        assert len(keys) == 2

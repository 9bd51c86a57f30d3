"""Unit tests for checkpoint capture, serialization, and the store."""

import dataclasses
import hashlib

import pytest

import repro.core.checkpoint as checkpoint_module
import repro.nt.memory as memory_module
from repro.apps.synthetic import SyntheticStateApp
from repro.core.checkpoint import Checkpoint, CheckpointStore, canonical_image_bytes
from repro.core.config import OfttConfig
from repro.errors import CheckpointError
from repro.harness.scenario import ChaosScenario, build_demo, build_pair_env, build_remote_monitoring

from tests.nt.test_memory import random_variables, reference_estimate_size


def checkpoint(sequence, image=None, incremental=False, app="app"):
    return Checkpoint(
        app_name=app,
        sequence=sequence,
        captured_at=float(sequence),
        image=image if image is not None else {"globals": {"x": sequence}},
        thread_contexts={"main": {"program_counter": 1, "stack_pointer": 2, "registers": {}}},
        incremental=incremental,
    )


def test_wire_roundtrip():
    original = checkpoint(3)
    assert Checkpoint.from_wire(original.as_wire()) == original


def test_size_grows_with_image():
    small = checkpoint(1, image={"globals": {"x": 1}})
    big = checkpoint(2, image={"globals": {"blob": "y" * 50_000}})
    assert big.size_bytes() > small.size_bytes() + 40_000


def test_store_keeps_latest():
    store = CheckpointStore(history=4)
    for sequence in (1, 2, 3):
        assert store.store(checkpoint(sequence))
    assert store.latest("app").sequence == 3
    assert store.latest_sequence("app") == 3


def test_store_rejects_stale_sequences():
    store = CheckpointStore()
    store.store(checkpoint(5))
    assert not store.store(checkpoint(5))
    assert not store.store(checkpoint(4))
    assert store.latest("app").sequence == 5


def test_store_bounds_history():
    store = CheckpointStore(history=3)
    for sequence in range(1, 10):
        store.store(checkpoint(sequence))
    chain = store.all_for("app")
    assert [cp.sequence for cp in chain] == [7, 8, 9]


def test_store_separates_apps():
    store = CheckpointStore()
    store.store(checkpoint(1, app="a"))
    store.store(checkpoint(1, app="b"))
    assert store.latest("a").app_name == "a"
    assert store.latest("b").app_name == "b"
    store.clear("a")
    assert store.latest("a") is None
    assert store.latest("b") is not None


def test_latest_of_unknown_app_is_none():
    store = CheckpointStore()
    assert store.latest("ghost") is None
    assert store.latest_sequence("ghost") == 0


def test_invalid_history_rejected():
    with pytest.raises(CheckpointError):
        CheckpointStore(history=0)


def test_incremental_merges_onto_base():
    base = checkpoint(1, image={"globals": {"a": 1, "b": 2}, "heap": {"h": 0}})
    delta = checkpoint(2, image={"globals": {"b": 99}, "new": {"n": 1}}, incremental=True)
    merged = delta.merged_onto(base)
    assert merged.image == {"globals": {"a": 1, "b": 99}, "heap": {"h": 0}, "new": {"n": 1}}
    assert not merged.incremental
    assert merged.sequence == 2


def test_incremental_without_base_rejected():
    delta = checkpoint(1, incremental=True)
    with pytest.raises(CheckpointError):
        delta.merged_onto(None)


def test_full_checkpoint_merge_is_identity():
    full = checkpoint(2)
    assert full.merged_onto(checkpoint(1)) is full


def test_store_resolves_incrementals_on_insert():
    store = CheckpointStore()
    store.store(checkpoint(1, image={"globals": {"a": 1, "b": 2}}))
    store.store(checkpoint(2, image={"globals": {"b": 3}}, incremental=True))
    latest = store.latest("app")
    assert latest.image == {"globals": {"a": 1, "b": 3}}
    assert not latest.incremental


def test_incremental_chain_resolves_transitively():
    store = CheckpointStore()
    store.store(checkpoint(1, image={"globals": {"a": 1}}))
    store.store(checkpoint(2, image={"globals": {"b": 2}}, incremental=True))
    store.store(checkpoint(3, image={"globals": {"c": 3}}, incremental=True))
    assert store.latest("app").image == {"globals": {"a": 1, "b": 2, "c": 3}}


@pytest.mark.parametrize("seed", range(20))
def test_size_bytes_matches_isinstance_estimate(seed):
    image = {"globals": random_variables(seed), "heap": random_variables(seed + 100)}
    expected = 64 + sum(16 + reference_estimate_size(region) for region in image.values()) + 32
    assert checkpoint(1, image=image).size_bytes() == expected


def walked_size(checkpoint):
    """*checkpoint*'s size priced by walking its image, as a checkpoint
    built outside a capture is."""
    return dataclasses.replace(checkpoint, image_bytes=None).size_bytes()


#: Warm captures of the paper's applications: sha256 and length of their
#: canonical image bytes, and their estimated size.  Pinned from captures
#: taken before the per-variable copy path, so a capture that reorders,
#: drops or re-types a variable, or prices it differently, fails here.
GOLDEN_CAPTURES = {
    "calltrack": ("b189650df8399279b1394e9684f03960992ae75de1076da1eb0c4afa4813ed4b", 270, 470),
    "scada": ("98516ee086105166ebf64e024045b79dfb0c856b0ced11d3fe0655849850069a", 5996, 7838),
    "synthetic-full": ("09455af2a4845c608a8934594a1fc99b14b30cda1811e8303611411b6cdde0db", 4335, 4481),
    "synthetic-selective": ("31d617c484913f6801bca6aae07379e4762158a1c55dc9ac55768f11074c76ed", 129, 285),
}

_SUBJECTS = {
    "calltrack": lambda: build_demo(seed=2),
    "scada": lambda: build_remote_monitoring(seed=2),
    "synthetic-full": lambda: build_pair_env(
        seed=2, app_factory=lambda: SyntheticStateApp(cold_kb=4, mode="full")
    ),
    "synthetic-selective": lambda: build_pair_env(
        seed=2, app_factory=lambda: SyntheticStateApp(cold_kb=4, mode="selective")
    ),
}


@pytest.mark.parametrize("subject", sorted(GOLDEN_CAPTURES))
def test_capture_bytes_match_golden(subject):
    scenario = _SUBJECTS[subject]()
    scenario.start()
    scenario.run_for(15_000.0)
    captured = scenario.primary_app().api.ftim.capture()
    raw = canonical_image_bytes(captured.image)
    assert (hashlib.sha256(raw).hexdigest(), len(raw), captured.size_bytes()) == GOLDEN_CAPTURES[subject]
    assert captured.image_bytes is not None and captured.size_bytes() == walked_size(captured)


# -- a capture is priced by the copy that takes it ------------------------------------


def test_checkpoint_built_outside_a_capture_is_priced_on_demand():
    image = {"globals": random_variables(3)}
    built = checkpoint(1, image=image)
    assert built.image_bytes is None
    rebuilt = Checkpoint.from_wire(built.as_wire())
    assert rebuilt.image_bytes is None and rebuilt.size_bytes() == built.size_bytes()
    priced = dataclasses.replace(built, image_bytes=5)
    assert priced == built and priced.size_bytes() == 64 + 5 + 32


def test_leader_follower_deltas_are_priced_as_the_walk_of_their_image():
    scenario = ChaosScenario(
        seed=0,
        config=OfttConfig(replication_strategy="leader-follower"),
        workload_period=100.0,
        checkpoint_period=2_000.0,
        message_driven=True,
    )
    submitted = []
    for engine in scenario.pair.engines.values():
        engine.on_checkpoint_submit.append(lambda _engine, captured: submitted.append(captured))
    scenario.start()
    scenario.run(until=5_000.0)
    deltas = [captured for captured in submitted if captured.incremental]
    assert len(deltas) > 20 and len(deltas) < len(submitted)
    for captured in submitted:
        assert captured.image_bytes is not None
        assert captured.size_bytes() == walked_size(captured)


def test_submit_checkpoint_records_the_capture_size_without_a_walk(monkeypatch):
    scenario = build_demo(seed=2)
    scenario.start()
    scenario.run_for(5_000.0)
    app = scenario.primary_app()
    engine = scenario.pair.engines[scenario.pair.primary_node()]

    def no_walk(_value):
        raise AssertionError("estimate_size walked a captured image")

    monkeypatch.setattr(checkpoint_module, "estimate_size", no_walk)
    monkeypatch.setattr(memory_module, "estimate_size", no_walk)
    sequence = app.api.ftim.TakeCheckpoint()
    monkeypatch.undo()
    latest = engine.local_store.latest(app.name)
    assert latest.sequence == sequence
    assert engine.checkpoint_sizes[-1] == walked_size(latest)

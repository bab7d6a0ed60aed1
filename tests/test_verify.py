"""The differential harness itself: targets, generators, shrinker, CLI."""

import hashlib
import json
import random

import pytest

from repro.verify import (
    TARGETS,
    Divergence,
    fuzz,
    run_ops,
    shrink,
)
from repro.verify.ops import (
    decode_key,
    encode_key,
    generate_table_ops,
    make_key_pool,
)
from repro.verify.runner import Failure
from repro.verify.targets import build_hasher


ALL_TARGETS = sorted(TARGETS)


def test_covers_required_structure_families():
    # The harness must span tables, filters, sketches, the store, and
    # the engine itself.
    assert set(ALL_TARGETS) >= {
        "chaining", "probing", "cuckoo_table",
        "bloom", "counting_bloom", "cuckoo_filter",
        "hll", "countmin", "minhash",
        "lsm", "engine", "reducers",
    }


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_target_runs_clean_on_fixed_code(name):
    report = fuzz(name, seed=1234, cases=3, ops_per_case=80)
    assert report.ok, report.failure.to_repro()
    assert report.cases == 3


def test_key_encoding_roundtrip():
    pool = make_key_pool(random.Random(0))
    for key in pool:
        assert decode_key(encode_key(key)) == key


def test_generators_are_deterministic():
    ops_a = generate_table_ops(random.Random(99), 60)
    ops_b = generate_table_ops(random.Random(99), 60)
    assert ops_a == ops_b
    assert ops_a != generate_table_ops(random.Random(100), 60)


def test_ops_are_json_serializable():
    for name in ALL_TARGETS:
        cls = TARGETS[name]
        rng = random.Random(5)
        config = cls.random_config(rng)
        ops = cls.generate_ops(rng, 40)
        roundtrip = json.loads(json.dumps({"config": config, "ops": ops}))
        assert roundtrip["ops"] == ops


# sha256 prefix of each target's default config plus, for seeds 0..199,
# its random config and a 120-op stream (see _op_stream_digest).  A
# saved repro or a `fuzz --seed N` run replays the same case only while
# these hold; a change that means to alter a stream re-pins the value.
PINNED_OP_STREAMS = {
    "chaining": "4a61a2068812a070",
    "probing": "4a61a2068812a070",
    "cuckoo_table": "77ef1a6b9bb86f2b",
    "bloom": "752b2e6e22800314",
    "counting_bloom": "2dec37e20f6f9332",
    "cuckoo_filter": "a6fee09a18a9987c",
    "hll": "ec6beef38d33f3ab",
    "countmin": "f77e585cbaba6af5",
    "minhash": "27df011b5f6028e2",
    "lsm": "fbd79e59bcd6c18e",
    "engine": "58e850b0c6240cb1",
    "reducers": "5f8ccda1fbc0ddd8",
    "service": "5ef1332e7b7fe04a",
    "chaos": "a3150abbc593a07b",
    "reshard": "0bdc711eda43d947",
    "drift": "8889ddf906f6e629",
    "frontdoor": "892b7cf9b7a41a8f",
    "similarity": "8d6954520ee08392",
}


def _op_stream_digest(cls) -> str:
    digest = hashlib.sha256(
        json.dumps(cls.default_config(), sort_keys=True).encode()
    )
    for seed in range(200):
        rng = random.Random(seed)
        digest.update(json.dumps(cls.random_config(rng), sort_keys=True).encode())
        digest.update(json.dumps(cls.generate_ops(rng, 120), sort_keys=True).encode())
    return digest.hexdigest()[:16]


def test_op_streams_are_pinned():
    # Independent of PYTHONHASHSEED: no generator may iterate a set.
    got = {name: _op_stream_digest(cls) for name, cls in TARGETS.items()}
    assert got == PINNED_OP_STREAMS


@pytest.mark.parametrize("one_key_batches", [False, True])
def test_drain_holds_the_liveness_floor(one_key_batches):
    # 12 puts over 3 shards leave some shard a backlog of >= 4, which
    # batch_size 4 drains in one pump; 1-key batches need 4.
    target = TARGETS["service"](TARGETS["service"].default_config())
    try:
        if one_key_batches:
            for worker in target.service.workers:
                worker.batch_size = 1
        keys = [encode_key(b"key-%04d" % i) for i in range(12)]
        target.apply({"op": "burst", "keys": keys, "v": 1})
        if one_key_batches:
            with pytest.raises(Divergence, match="liveness floor"):
                target.apply({"op": "drain"})
        else:
            target.apply({"op": "drain"})
            target.final_check()
    finally:
        target.teardown()


def test_build_hasher_specs():
    partial = build_hasher(
        {"positions": [0, 4], "word_size": 2, "base": "wyhash", "seed": 3}
    )
    assert not partial.partial_key.is_full_key
    assert partial.seed == 3
    full = build_hasher({"full_key": True, "base": "xxh3"})
    assert full.partial_key.is_full_key


def test_run_ops_reports_divergence_index():
    # An impossible oracle expectation: get before any insert, then make
    # the oracle disagree by inserting only into the oracle's view via a
    # crafted bogus op name (the target must reject unknown ops).
    config = TARGETS["probing"].default_config()
    failure = run_ops("probing", config, [{"op": "no_such_op"}])
    assert failure is not None
    assert failure.op_index == 0
    assert "no_such_op" in failure.error


class _BrokenTarget:
    """Synthetic target: fails iff ops contain >= 3 'bad' markers."""

    name = "_broken"

    def __init__(self, config):
        self.bad_seen = 0

    @classmethod
    def default_config(cls):
        return {}

    def apply(self, op):
        if op["op"] == "bad":
            self.bad_seen += 1
            if self.bad_seen >= 3:
                raise Divergence("three bad ops")

    def final_check(self):
        pass


@pytest.fixture
def broken_target():
    TARGETS["_broken"] = _BrokenTarget
    try:
        yield
    finally:
        del TARGETS["_broken"]


def test_shrinker_minimizes_to_exact_trigger(broken_target):
    ops = []
    rng = random.Random(7)
    for i in range(60):
        ops.append({"op": "bad" if rng.random() < 0.3 else "noise", "i": i})
    ops += [{"op": "bad", "i": 100 + j} for j in range(3)]  # guarantee trigger
    failure = run_ops("_broken", {}, ops)
    assert failure is not None
    shrunk = shrink(failure)
    assert [op["op"] for op in shrunk.ops] == ["bad", "bad", "bad"]


def test_clean_batch_ops_do_not_fail():
    config = TARGETS["probing"].default_config()
    ops = [{"op": "insert_batch",
            "keys": [encode_key(b"k%d" % i) for i in range(6)],
            "values": list(range(6))},
           {"op": "check_items"}]
    assert run_ops("probing", config, ops) is None


def test_failure_roundtrips_through_repro_dict(tmp_path):
    from repro.verify import load_repro, replay, save_repro

    failure = Failure(
        target="probing",
        config=TARGETS["probing"].default_config(),
        ops=[{"op": "check_items"}],
        op_index=0,
        error="synthetic",
        seed=42,
    )
    path = tmp_path / "r.json"
    save_repro(path, failure.to_repro())
    repro = load_repro(path)
    assert repro["target"] == "probing"
    assert replay(repro) is None  # check_items alone cannot fail


# ------------------------------------------------------------------ CLI


def test_cli_fuzz_list(capsys):
    from repro.cli import main

    assert main(["fuzz", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(ALL_TARGETS)


def test_cli_fuzz_single_structure(capsys):
    from repro.cli import main

    assert main(["fuzz", "--structure", "reducers",
                 "--seed", "3", "--cases", "2", "--ops", "40"]) == 0
    assert "reducers" in capsys.readouterr().out


def test_cli_fuzz_rejects_unknown_structure():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["fuzz", "--structure", "nonsense"])


def test_cli_fuzz_execution_pins_exactly_the_serving_targets(capsys):
    from repro import cli
    from repro.verify.runner import FuzzReport

    calls = {}

    def fake_fuzz(name, seed=0, cases=10, ops_per_case=120, **kwargs):
        calls[name] = kwargs
        return FuzzReport(target=name, cases=1, ops_run=1)

    # cmd_fuzz imports `fuzz` from repro.verify at call time, so
    # patching the package attribute intercepts it.
    import repro.verify as verify_pkg

    original = verify_pkg.fuzz
    verify_pkg.fuzz = fake_fuzz
    try:
        code = cli.main(["fuzz", "--structure", "all", "--execution", "process"])
    finally:
        verify_pkg.fuzz = original
    assert code == 0
    assert set(calls) == set(ALL_TARGETS)
    pinned = {name for name, kwargs in calls.items() if kwargs}
    assert pinned == {
        "service", "chaos", "reshard", "drift", "frontdoor", "similarity",
    }
    for name in pinned:
        assert calls[name] == {"config_overrides": {"execution": "process"}}


def test_cli_fuzz_failure_exit_code_and_artifact(tmp_path, capsys):
    from repro import cli
    from repro.verify.runner import FuzzReport

    def fake_fuzz(name, seed=0, cases=10, ops_per_case=120):
        report = FuzzReport(target=name, cases=1, ops_run=3)
        report.failure = Failure(
            target=name, config={}, ops=[{"op": "bad"}] * 3,
            op_index=2, error="three bad ops", seed=seed,
        )
        return report

    # cmd_fuzz imports `fuzz` from repro.verify at call time, so
    # patching the package attribute intercepts it.
    import repro.verify as verify_pkg

    original = verify_pkg.fuzz
    verify_pkg.fuzz = fake_fuzz
    try:
        code = cli.main([
            "fuzz", "--structure", "probing",
            "--save-repros", str(tmp_path),
        ])
    finally:
        verify_pkg.fuzz = original
    assert code == 1
    saved = list(tmp_path.glob("*.json"))
    assert len(saved) == 1
    text = saved[0].read_text()
    assert "three bad ops" in text
    assert "DIVERGED" in capsys.readouterr().out

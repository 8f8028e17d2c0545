"""Unit tests for experiment specs: seed derivation, hashing, validation."""

import collections
import hashlib
import importlib
import inspect
import sys
import zlib

import pytest

from repro import exp
from repro.eval import table3
from repro.exp import spec as spec_mod
from repro.exp.errors import SpecError


def _echo(seed, params):
    """Module-level trial used by spec tests."""
    return {"seed": seed, **dict(params)}


def _sum_reduce(values):
    """Module-level reduce used by spec tests."""
    return {"n": len(values)}


def _spec(**overrides):
    base = dict(
        name="t",
        trial=_echo,
        trials=(exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 2}, (3,))),
    )
    base.update(overrides)
    return exp.ExperimentSpec(**base)


# -- seed derivation -----------------------------------------------------------


def test_derive_seed_matches_documented_formula():
    mix = int.from_bytes(
        hashlib.blake2b(b"deploy:pbr\x1f2", digest_size=8).digest(), "big"
    )
    assert exp.derive_seed(1000, "deploy:pbr", 2) == 1000 + mix


def test_derive_seeds_stable_and_distinct():
    seeds = exp.derive_seeds(7, "cell", 5)
    assert seeds == exp.derive_seeds(7, "cell", 5)
    assert len(set(seeds)) == 5
    assert seeds != exp.derive_seeds(7, "other-cell", 5)
    assert seeds != exp.derive_seeds(8, "cell", 5)


def test_derive_seeds_prefix_property():
    # raising the run count extends the seed tuple without moving old seeds
    assert exp.derive_seeds(7, "cell", 3) == exp.derive_seeds(7, "cell", 5)[:3]


def _old_derive_seed(base_seed, key, run):
    """The pre-64-bit derivation (collision space of 100 000)."""
    return base_seed + (zlib.crc32(key.encode("utf-8")) + 37 * run) % 100_000


def test_derive_seed_collision_regression():
    # the old % 100_000 folding made distinct (key, run) pairs share seeds
    # across cells; find such a pair and assert the 64-bit mix splits it
    keys = [f"deploy:{k}" for k in "abcdefghij"] + [f"c{i}->c{j}"
                                                   for i in range(8)
                                                   for j in range(8)]
    seen = {}
    collision = None
    for key in keys:
        for run in range(50):
            old = _old_derive_seed(0, key, run)
            if old in seen and seen[old][0] != key:
                collision = (seen[old], (key, run))
                break
            seen[old] = (key, run)
        if collision:
            break
    assert collision is not None, "search space should exhibit an old collision"
    (key_a, run_a), (key_b, run_b) = collision
    assert _old_derive_seed(0, key_a, run_a) == _old_derive_seed(0, key_b, run_b)
    assert exp.derive_seed(0, key_a, run_a) != exp.derive_seed(0, key_b, run_b)


def test_derive_seed_dense_grid_is_collision_free():
    # a Table 3-sized grid times a campaign's worth of runs: all distinct
    keys = [f"k{i}->k{j}" for i in range(10) for j in range(10)]
    seeds = {exp.derive_seed(0, key, run) for key in keys for run in range(100)}
    assert len(seeds) == len(keys) * 100


def test_table3_spec_uses_the_derived_cell_seeds():
    spec = table3.spec(runs=3, base_seed=1000)
    cell = spec.cell("pbr->lfr")
    assert cell.seeds == exp.derive_seeds(1000, "pbr->lfr", 3)


# -- hashing -------------------------------------------------------------------


def test_spec_hash_is_stable():
    assert exp.spec_hash(_spec()) == exp.spec_hash(_spec())


@pytest.mark.parametrize(
    "mutation",
    [
        {"name": "other"},
        {"version": "3"},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 2}, (4,)))},
        {"trials": (exp.Trial("a", {"x": 9}, (1, 2)), exp.Trial("b", {"x": 2}, (3,)))},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2, 3)), exp.Trial("b", {"x": 2}, (3,)))},
        {"reduce": _sum_reduce},
    ],
    ids=["name", "version", "seed", "params", "runs", "reduce"],
)
def test_spec_hash_sees_every_identity_field(mutation):
    assert exp.spec_hash(_spec(**mutation)) != exp.spec_hash(_spec())


def test_default_version_is_bumped_for_the_64bit_seeds():
    # entries stored under the "1" (crc32 % 100_000) scheme must miss
    assert _spec().version == "2"


def test_fingerprint_is_json_safe_and_names_the_trial():
    import json

    fp = exp.fingerprint(_spec())
    json.dumps(fp)
    assert fp["trial"].endswith(":_echo")
    assert fp["trials"][0]["seeds"] == [1, 2]
    assert fp["reduce"] is None


# -- cell hashing --------------------------------------------------------------


def test_cell_hash_is_stable_and_distinct_per_cell():
    spec = _spec()
    hashes = [exp.cell_hash(spec, trial) for trial in spec.trials]
    assert hashes == [exp.cell_hash(_spec(), trial) for trial in _spec().trials]
    assert len(set(hashes)) == len(hashes)


def test_editing_one_cell_changes_only_that_cells_hash():
    spec = _spec()
    edited = _spec(
        trials=(exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 99}, (3,)))
    )
    assert exp.cell_hash(spec, spec.cell("a")) == exp.cell_hash(
        edited, edited.cell("a")
    )
    assert exp.cell_hash(spec, spec.cell("b")) != exp.cell_hash(
        edited, edited.cell("b")
    )


def test_spec_level_changes_invalidate_every_cell():
    spec = _spec()
    for mutated in (_spec(version="3"), _spec(reduce=_sum_reduce)):
        for trial in spec.trials:
            assert exp.cell_hash(spec, trial) != exp.cell_hash(
                mutated, mutated.cell(trial.key)
            )


def test_cell_fingerprint_is_json_safe():
    import json

    spec = _spec()
    fp = exp.cell_fingerprint(spec, spec.cell("a"))
    json.dumps(fp)
    assert fp["cell"]["key"] == "a"
    assert fp["version"] == spec.version


def test_cell_slug_is_filesystem_safe():
    assert exp.cell_slug("pbr->lfr") == "pbr-_lfr"
    assert exp.cell_slug("deploy:pbr+tr") == "deploy_pbr+tr"
    assert exp.cell_slug("///") == "cell"
    assert len(exp.cell_slug("x" * 200)) == 48


# -- source digest memo --------------------------------------------------------


def test_source_is_read_once_per_function_across_cold_and_warm_runs(
        tmp_path, monkeypatch):
    # start from an empty memo so the count below is exact, not vacuous
    monkeypatch.setattr(spec_mod, "_SOURCE_DIGESTS", {})
    reads = collections.Counter()
    getsource = inspect.getsource

    def counting_getsource(obj):
        reads[obj] += 1
        return getsource(obj)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    spec = _spec(
        reduce=_sum_reduce,
        trials=tuple(exp.Trial(f"c{i}", {"x": i}, (i, i + 100))
                     for i in range(12)),
    )
    store = exp.ResultStore(tmp_path)
    cold = exp.run(spec, jobs=1, store=store)
    warm = exp.run(spec, jobs=1, store=store)
    assert cold.executed == 24 and warm.cached and warm.executed == 0
    assert reads == {_echo: 1, _sum_reduce: 1}


_RELOAD_MODULE = "spec_memo_reload_trial"

_RELOAD_SOURCE = """
def trial(seed, params):
    return {body}
"""


def test_reloaded_trial_source_changes_the_cell_hash(tmp_path, monkeypatch,
                                                     request):
    source = tmp_path / f"{_RELOAD_MODULE}.py"
    source.write_text(_RELOAD_SOURCE.format(body="seed"), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    request.addfinalizer(lambda: sys.modules.pop(_RELOAD_MODULE, None))
    module = importlib.import_module(_RELOAD_MODULE)

    def build():
        return exp.ExperimentSpec(
            name="reload", trial=module.trial,
            trials=(exp.Trial("a", {}, (1, 2)),),
        )

    store = exp.ResultStore(tmp_path / "store")
    before = build()
    old_hash = exp.cell_hash(before, before.cell("a"))
    assert exp.run(before, jobs=1, store=store).results == {"a": [1, 2]}
    assert exp.run(build(), jobs=1, store=store).cached

    # a body of another length: linecache revalidates by mtime and size
    source.write_text(_RELOAD_SOURCE.format(body="seed * 1000"),
                      encoding="utf-8")
    module = importlib.reload(module)
    after = build()
    assert exp.cell_hash(after, after.cell("a")) != old_hash
    rerun = exp.run(after, jobs=1, store=store)
    assert rerun.executed == 2 and not rerun.cached
    assert rerun.results == {"a": [1000, 2000]}


# -- validation ----------------------------------------------------------------


def test_spec_rejects_lambda_trials():
    with pytest.raises(SpecError):
        exp.ExperimentSpec(
            name="bad", trial=lambda s, p: {}, trials=(exp.Trial("a"),)
        )


def test_spec_rejects_lambda_reduce():
    with pytest.raises(SpecError):
        _spec(reduce=lambda values: len(values))


def test_spec_rejects_duplicate_cell_keys():
    with pytest.raises(SpecError):
        _spec(trials=(exp.Trial("a"), exp.Trial("a")))


def test_spec_cell_lookup():
    spec = _spec()
    assert spec.cell("b").params == {"x": 2}
    assert spec.unit_count == 3
    with pytest.raises(SpecError):
        spec.cell("missing")

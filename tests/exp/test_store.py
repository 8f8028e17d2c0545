"""Result-store tests: cell layout, cache hits, legacy read-through, GC."""

import json
import os
import shutil

from repro import exp
from repro.eval import figure9
from repro.exp.store import MANIFEST_NAME


def echo_trial(seed, params):
    """A trivial trial: echoes its inputs."""
    return {"seed": seed, "tag": params.get("tag")}


def _spec(**overrides):
    base = dict(
        name="echo",
        trial=echo_trial,
        trials=(
            exp.Trial("a", {"tag": "x"}, (1, 2)),
            exp.Trial("b", {"tag": "y"}, (3,)),
        ),
    )
    base.update(overrides)
    return exp.ExperimentSpec(**base)


def test_store_round_trip_serves_identical_results(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    first = exp.run(spec, jobs=1, store=store)
    second = exp.run(spec, jobs=4, store=store)
    assert not first.cached and first.executed == 3
    assert second.cached and second.executed == 0
    assert second.cells_cached == 2
    assert json.dumps(first.results) == json.dumps(second.results)


def test_store_layout_is_one_file_per_cell_plus_manifest(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    spec_dir = store.spec_dir(spec)
    assert (spec_dir / MANIFEST_NAME).is_file()
    for trial in spec.trials:
        path = store.cell_path(spec, trial)
        assert path.parent == spec_dir
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["cell_hash"] == exp.cell_hash(spec, trial)
        assert len(payload["values"]) == trial.runs
    manifest = json.loads((spec_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["hash"] == exp.spec_hash(spec)
    assert set(manifest["cells"]) == {"a", "b"}


def _age(path):
    """Backdate ``path`` so any rewrite shows in its ``st_mtime_ns``."""
    os.utime(path, ns=(10**9, 10**9))
    return path.stat().st_mtime_ns


def _assert_as_written_fresh(store, spec, tmp_path):
    """The manifest's bytes equal what ``write_manifest`` writes into an
    empty store holding the same cell files."""
    manifest = store.manifest_path(spec)
    empty = exp.ResultStore(tmp_path / "empty")
    spec_dir = empty.spec_dir(spec)
    spec_dir.mkdir(parents=True)
    for trial in spec.trials:
        shutil.copy(store.cell_path(spec, trial), spec_dir)
    meta = json.loads(manifest.read_text(encoding="utf-8"))["meta"]
    written = empty.write_manifest(spec, meta=meta)
    assert written.read_bytes() == manifest.read_bytes()


def test_warm_rerun_leaves_an_unchanged_manifest_untouched(tmp_path):
    store = exp.ResultStore(tmp_path / "store")
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    exp.run(spec, jobs=1, store=store)  # meta moves from cold to warm
    manifest = store.manifest_path(spec)
    data, stamp = manifest.read_bytes(), _age(manifest)
    assert exp.run(spec, jobs=1, store=store).cached
    assert manifest.read_bytes() == data
    assert manifest.stat().st_mtime_ns == stamp
    _assert_as_written_fresh(store, spec, tmp_path)


def test_manifest_with_other_meta_or_bytes_is_rewritten(tmp_path):
    store = exp.ResultStore(tmp_path / "store")
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    exp.run(spec, jobs=1, store=store)
    manifest = store.manifest_path(spec)
    warm = manifest.read_bytes()
    stamp = _age(manifest)
    exp.run(spec, jobs=1, store=store, fresh=True)  # elapsed_s is not 0
    assert manifest.read_bytes() != warm
    assert manifest.stat().st_mtime_ns != stamp
    _assert_as_written_fresh(store, spec, tmp_path)

    # the same dict in other bytes is rewritten, not skipped
    exp.run(spec, jobs=1, store=store)
    compact = json.dumps(json.loads(manifest.read_text(encoding="utf-8")))
    manifest.write_text(compact, encoding="utf-8")
    exp.run(spec, jobs=1, store=store)
    assert manifest.read_bytes() == warm


def test_store_round_trip_on_a_real_simulation(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = figure9.spec(runs=2)
    fresh = exp.run(spec, jobs=1, store=store)
    cached = exp.run(spec, jobs=1, store=store)
    assert cached.cached and cached.executed == 0
    assert figure9.from_results(fresh.results) == figure9.from_results(
        cached.results
    )


def test_spec_change_misses_the_cache(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    for changed in (
        _spec(version="3"),
        _spec(trials=(exp.Trial("a", {"tag": "x"}, (9, 2)), exp.Trial("b", {"tag": "y"}, (3,)))),
    ):
        result = exp.run(changed, jobs=1, store=store)
        assert not result.cached


def test_one_cell_edit_recomputes_one_cell(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    edited = _spec(
        trials=(exp.Trial("a", {"tag": "x"}, (1, 2)), exp.Trial("b", {"tag": "z"}, (3,)))
    )
    result = exp.run(edited, jobs=1, store=store)
    assert result.executed == 1  # only cell b's single run
    assert result.cells_cached == 1 and result.cells_executed == 1


def test_invalidate_and_clear(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    assert store.manifest_path(spec).exists()
    assert store.invalidate(spec)
    assert not store.invalidate(spec)
    assert store.load_cells(spec) == {}
    exp.run(spec, jobs=1, store=store)
    # 2 cell files + 1 manifest
    assert store.clear() == 3
    assert store.entries() == []


def test_fresh_forces_recomputation(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    forced = exp.run(spec, jobs=1, store=store, fresh=True)
    assert not forced.cached and forced.executed == 3


def test_corrupt_cell_is_recomputed_alone(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    store.cell_path(spec, spec.cell("a")).write_text("{not json",
                                                     encoding="utf-8")
    result = exp.run(spec, jobs=1, store=store)
    assert not result.cached
    assert result.executed == 2  # cell a only; b still served
    assert result.cells_cached == 1
    # and the entry was rewritten cleanly
    assert exp.run(spec, jobs=1, store=store).cached


def test_cell_with_wrong_shape_is_ignored(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    path = store.cell_path(spec, spec.cell("a"))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["values"] = payload["values"][:1]  # one run missing
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert store.load_cell(spec, spec.cell("a")) is None
    assert store.load(spec) is None  # whole-spec view refuses partials
    assert store.load_cells(spec) == {"b": [{"seed": 3, "tag": "y"}]}


def test_legacy_single_file_format_is_read_through(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    results = {
        "a": [{"seed": 1, "tag": "x"}, {"seed": 2, "tag": "x"}],
        "b": [{"seed": 3, "tag": "y"}],
    }
    legacy_payload = {
        "hash": exp.spec_hash(spec),
        "fingerprint": exp.fingerprint(spec),
        "meta": {},
        "results": results,
    }
    store.root.mkdir(parents=True, exist_ok=True)
    store.legacy_path_for(spec).write_text(json.dumps(legacy_payload),
                                           encoding="utf-8")
    served = exp.run(spec, jobs=1, store=store)
    assert served.cached and served.executed == 0
    assert served.results == results
    # read-through migrates the entry into cell files
    for trial in spec.trials:
        assert store.cell_path(spec, trial).is_file()


def test_stale_legacy_entry_is_ignored(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    store.root.mkdir(parents=True, exist_ok=True)
    store.legacy_path_for(spec).write_text(
        json.dumps({"hash": "0" * 64, "results": {}}), encoding="utf-8"
    )
    result = exp.run(spec, jobs=1, store=store)
    assert not result.cached and result.executed == 3


def test_gc_removes_orphans_but_keeps_resumable_cells(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    edited = _spec(
        trials=(exp.Trial("a", {"tag": "x"}, (1, 2)), exp.Trial("b", {"tag": "z"}, (3,)))
    )
    exp.run(edited, jobs=1, store=store)  # old cell b becomes an orphan
    assert store.gc() == 1
    # both current specs' latest cells survive gc where still referenced
    assert exp.run(edited, jobs=1, store=store).cached
    # a spec dir without a manifest (killed run) is never collected
    other = _spec(name="killed")
    store.save_cell(other, other.cell("a"), [{"seed": 1}, {"seed": 2}])
    assert store.gc() == 0
    assert store.cell_path(other, other.cell("a")).is_file()


def test_entries_digest(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    (entry,) = store.entries()
    assert entry["spec"] == "echo"
    assert entry["cells"] == 2
    assert entry["hash"] == exp.spec_hash(_spec())
    assert entry["format"] == "cells"

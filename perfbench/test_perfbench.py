"""Self-tests of the benchmark: python -m pytest perfbench

Each workload runs at a tiny size, a corrupted output must count as
failed, and a traced run must leave the package exactly as it found it.
"""

import dataclasses
import json
import os

import checks
import numpy as np
import pytest
import run
import tracer
import workloads
from inputs import caterpillar, make_instance

import losstree
from losstree import cli, load_topology

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "wide": dict(main_tree=workloads._random(200, 4), hotspots=5, exp_trials=1,
                 census_K="1-2", census_trials=5, verify_trials=2),
    "caterpillar": dict(main_tree=lambda seed: caterpillar(40), hotspots=5, exp_trials=1,
                        census_K="1-2", census_trials=5, verify_trials=2),
    "small-sweep": dict(exp_K="1-2", exp_probes="1000", exp_trials=3, census_K="1-2",
                        census_trials=5, verify_trials=2),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        sizes = dataclasses.replace(workloads.WORKLOADS[name], **changes)
        monkeypatch.setitem(workloads.WORKLOADS, name, sizes)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_and_reports_every_metric(tiny, workload):
    result, record = run.run(workload, seed=3, seconds=0.01, trace=False, root=ROOT)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_traced_run_reports_layers_and_restores_package(tiny):
    before = tracer.snapshot()
    result, _ = run.run("small-sweep", seed=3, seconds=0.01, trace=True, root=ROOT)
    after = tracer.snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in run.LAYERS:
        assert result["metrics"][f"{name}.calls"]["value"] > 0, name


def test_tracer_patches_every_binding():
    original = cli.upsparse
    closed_form = losstree.noiseless.closed_form
    with tracer.Tracer() as tr:
        assert cli.upsparse is not original
        assert losstree.upsparse is cli.upsparse
        for module in (losstree.noiseless, losstree.simulation, losstree.oracle):
            assert module.closed_form is not closed_form
        tree = losstree.gen_ternary_tree(13)
        losstree.forward(tree, np.zeros(tree.n))
    assert cli.upsparse is original
    names = [span[2] for span in tr.spans]
    assert names == ["topology.build_tree", "topology.gen_regular_tree",
                     "topology.build_tree", "topology.gen_ternary_tree",
                     "topology.LogicalTree.paths", "lossmodel.forward"]
    self_s, calls = tr.totals()
    assert calls["topology.build_tree"] == 2
    assert all(v >= 0 for v in self_s.values())


def test_corrupted_solve_output_counts_as_failed(tiny, monkeypatch):
    def corrupt(tree, y):
        report = losstree.upsparse(tree, y)
        report.x[0] += 0.01
        return report

    monkeypatch.setattr(cli, "upsparse", corrupt)
    result, record = run.run("wide", seed=3, seconds=0.01, trace=False, root=ROOT)
    assert not result["correct"]
    assert result["failed"] >= 2  # warm-up and timed solve
    # verify cross-checks the same solver against the oracle and may fail too.
    failed = {f.split(":")[0] for f in record["failures"]}
    assert "solve_ms" in failed
    assert failed <= {"solve_ms", "verify_instances_per_s"}


def _instance(tmp_path):
    return make_instance(caterpillar(6), 2, seed=5, prefix=str(tmp_path / "c"))


def test_checks_reject_corrupted_outputs(tmp_path):
    inst = _instance(tmp_path)
    x = list(inst.x[1:])
    assert checks.solve(inst)(0, json.dumps({"x": x}), "") is None
    x[3] += 1e-6
    assert "planted" in checks.solve(inst)(0, json.dumps({"x": x}), "")
    assert "exit code 1" in checks.solve(inst)(1, "", "boom")

    # All loss on the leaf links, realizing the lower interval ends.
    receiver = np.zeros(inst.tree.n)
    receiver[: inst.tree.m] = inst.lo
    good = {"x": list(receiver), "y": list(inst.lo)}
    noisy = checks.solve_noisy(inst)
    assert noisy(0, json.dumps(good), "") is None
    shifted = dict(good, y=[v + 1.0 for v in good["y"]])
    assert noisy(0, json.dumps(shifted), "") is not None

    scfs = checks.scfs(inst)
    # Topmost links under which every path is lossy.
    z = inst.tree.path_sums(inst.x)
    top = [v for v in range(1, inst.tree.n + 1) if z[v] > 0 and z[inst.tree.parent[v]] == 0]
    assert scfs(0, " ".join(map(str, top)), "") is None
    assert "ancestor" in scfs(0, f"{inst.tree.m + 1} 1", "")
    assert scfs(0, "(no bad links)", "") is not None


def test_csv_check_requires_identical_repeats(tmp_path):
    path = str(tmp_path / "c.csv")
    check = checks.SameCsv(path, ["K", "p"], 1, ["p"])
    for text, ok in (("K,p\n1,0.5\n", True), ("K,p\n1,0.5\n", True), ("K,p\n1,0.6\n", False)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert (check(0, "", "") is None) == ok
    assert check(0, "", "") is not None  # nothing written since the last check


def test_caterpillar_labels_are_canonical(tmp_path):
    tree = caterpillar(5)
    assert tree.shape() == {"n": 9, "m": 5, "height": 5, "total_path_length": 19}
    tree.write(str(tmp_path / "c.tree"))
    loaded = load_topology(str(tmp_path / "c.tree"))
    assert np.array_equal(loaded.parent, tree.parent)

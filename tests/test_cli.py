"""CLI behavior via main(argv); exit codes 0 ok, 1 bad input, 2 runtime error."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import infersub
from infersub.cli import main
from infersub.metrics import emit
from infersub.scenario import load_scenario
from infersub.simulator import compile_scenario, run
from oracles import ref_place_oracle

SCENARIO_DIR = Path(infersub.__file__).parent / "scenarios"
NWDAF = str(SCENARIO_DIR / "nwdaf.json")
GOLDEN_DIR = Path(__file__).parent / "golden"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"infersub {infersub.__version__}"


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", NWDAF]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"topology": {}}')
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", str(bad)])
    assert exc.value.code == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(tmp_path / "nope.json")])
    assert exc.value.code == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_stdout_matches_library(capsys):
    assert main(["run", "--scenario", NWDAF]) == 0
    out = capsys.readouterr().out
    assert out == emit(run(load_scenario(NWDAF)), "json")


def test_run_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["run", "--scenario", NWDAF, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["totals"]["published"] == 140


def test_unwritable_out_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    assert main(["run", "--scenario", NWDAF, "--out", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert not dest.exists()


def test_run_csv_format(capsys):
    assert main(["run", "--scenario", NWDAF, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("kind,id,")


def test_seed_override_changes_the_run(capsys):
    main(["run", "--scenario", NWDAF])
    first = capsys.readouterr().out
    main(["run", "--scenario", NWDAF, "--seed", "999"])
    second = capsys.readouterr().out
    assert first != second
    assert json.loads(second)["seed"] == 999


def test_compare_emits_both_reports(capsys):
    assert main(["compare", "--scenario", NWDAF]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["baseline", "upstream"]
    for rep in payload.values():
        assert rep["totals"]["published"] == 140


@pytest.mark.parametrize("algorithm", ["upstream", "oracle", "baseline"])
def test_place_lists_every_instance(algorithm, capsys):
    assert main(["place", "--scenario", NWDAF, "--algorithm", algorithm]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows, "expected at least one placement row"
    for row in rows:
        assert row["algorithm"] == algorithm
        assert row["feasible"] is True
        assert row["objective"] is not None


@pytest.mark.parametrize(
    "name, algorithm",
    [
        # the oracle rows keep the ids they had before upstream was pinned
        pytest.param(
            name, algorithm, id=name if algorithm == "oracle" else f"{name}-upstream"
        )
        for algorithm in ("oracle", "upstream")
        for name in ("arvr", "federation", "nlp", "nwdaf", "oran")
    ],
)
def test_place_oracle_matches_golden_bytes(name, algorithm, capsys):
    """The oracle files are frozen from the exhaustive search that scored
    every candidate; the branch-and-bound must print the same bytes. The
    upstream files are a regression pin written by commit d2d1056, not a hand
    audit: they hold whatever that heuristic printed then."""
    scenario = str(SCENARIO_DIR / f"{name}.json")
    assert main(["place", "--scenario", scenario, "--algorithm", algorithm]) == 0
    golden = GOLDEN_DIR / algorithm / f"{name}.json"
    assert capsys.readouterr().out == golden.read_text()


def test_place_oracle_vs_upstream_never_worse(capsys):
    main(["place", "--scenario", NWDAF, "--algorithm", "upstream"])
    up = {r["instance_id"]: r for r in json.loads(capsys.readouterr().out)}
    main(["place", "--scenario", NWDAF, "--algorithm", "oracle"])
    orc = {r["instance_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert up.keys() == orc.keys()
    for iid in up:
        assert orc[iid]["objective"] <= up[iid]["objective"] + 1e-9


def test_place_oracle_oversized_space_exits_2(tmp_path, capsys):
    # 12 spare nodes x 7 unpinned stages blows the oracle's enumeration cap
    nodes = [{"node_id": "p", "tier": "device", "cpu_capacity": 64,
              "mem_mb": 4096, "domain_id": "d"}]
    links = []
    for i in range(12):
        nid = f"n{i:02d}"
        nodes.append({"node_id": nid, "tier": "edge", "cpu_capacity": 64,
                      "mem_mb": 4096, "domain_id": "d"})
        links.append({"a": "p" if i == 0 else f"n{i - 1:02d}", "b": nid,
                      "latency_ms": 1, "bandwidth_kb_per_ms": 100})
    doc = {
        "topology": {"nodes": nodes, "links": links, "brokers": {"d": "n05"}},
        "models": [{
            "model_id": "wide", "version": 1, "task_tag": "text", "domain_id": "d",
            "layers": [
                {"compute_cost": 1, "mem_mb": 1, "selectivity": 1}
                for _ in range(7)
            ],
        }],
        "bindings": {"d/p/x": "p"},
        "subscriptions": [{
            "sub_id": "big", "subscriber": "n11", "kind": "inference",
            "model_id": "wide", "filter": "d/p/x", "k": 7,
        }],
        "workload": {"d/p/x": {"size_bytes": 512, "rate_per_s": 1,
                               "periodic": True, "count": 1}},
        "faults": [],
        "objective": {"alpha": 1, "beta": 0.1},
        "sim": {"duration_ms": 100, "seed": 1},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["place", "--scenario", str(path), "--algorithm", "oracle"]) == 2
    assert "search space" in capsys.readouterr().err


def test_place_oracle_does_not_need_upstream_to_succeed(tmp_path, capsys):
    # only the off-route node g has the accelerator the single stage needs;
    # upstream searches the p-s route and fails, the oracle picks g
    nodes = [
        {"node_id": "p", "tier": "device", "cpu_capacity": 8, "mem_mb": 512,
         "domain_id": "d"},
        {"node_id": "s", "tier": "edge", "cpu_capacity": 8, "mem_mb": 512,
         "domain_id": "d"},
        {"node_id": "g", "tier": "edge", "cpu_capacity": 8, "mem_mb": 512,
         "has_accelerator": True, "domain_id": "d"},
    ]
    links = [
        {"a": "p", "b": "s", "latency_ms": 1, "bandwidth_kb_per_ms": 100},
        {"a": "g", "b": "s", "latency_ms": 5, "bandwidth_kb_per_ms": 100},
    ]
    doc = {
        "topology": {"nodes": nodes, "links": links, "brokers": {"d": "s"}},
        "models": [{
            "model_id": "m", "version": 1, "task_tag": "text", "domain_id": "d",
            "layers": [{"compute_cost": 1, "mem_mb": 1, "selectivity": 1,
                        "needs_accelerator": True}],
        }],
        "bindings": {"d/p/x": "p"},
        "subscriptions": [{
            "sub_id": "a", "subscriber": "s", "kind": "inference",
            "model_id": "m", "filter": "d/p/x", "k": 1,
        }],
        "workload": {"d/p/x": {"size_bytes": 512, "rate_per_s": 1,
                               "periodic": True, "count": 1}},
        "faults": [],
        "objective": {"alpha": 1, "beta": 0.1},
        "sim": {"duration_ms": 100, "seed": 1},
    }
    path = tmp_path / "offroute.json"
    path.write_text(json.dumps(doc))

    assert main(["place", "--scenario", str(path), "--algorithm", "oracle"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["feasible"]
    sc = load_scenario(str(path))
    # baseline placement never fails, so it yields the instance to re-place
    brokers, _ = compile_scenario(sc, "baseline")
    (inst,) = brokers["d"].instances.values()
    ref = ref_place_oracle(
        inst.pipeline, sc.topology, sc.workload, sc.objective,
        inst.publishers, inst.subscriber,
    )
    assert rows[0]["assignment"] == dict(ref.assignment) == {"m-v1-s1": "g"}

    assert main(["place", "--scenario", str(path), "--algorithm", "upstream"]) == 2
    assert capsys.readouterr().err == "error: a:m-v1: stage m-v1-s1\n"


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --scenario
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

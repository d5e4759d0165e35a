"""CLI behavior via main(argv); exit codes 0 ok, 1 bad input, 2 runtime error."""

from __future__ import annotations

import json
import weakref
from dataclasses import asdict
from pathlib import Path

import pytest

import infersub
from infersub.broker import Broker
from infersub.cli import main
from infersub.metrics import emit
from infersub.placement import TransferMemo, cost
from infersub.scenario import load_scenario
from infersub.simulator import compile_scenario, run
from oracles import ref_place_oracle

SCENARIO_DIR = Path(infersub.__file__).parent / "scenarios"
NWDAF = str(SCENARIO_DIR / "nwdaf.json")
FEDERATION = str(SCENARIO_DIR / "federation.json")
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


# nwdaf.json with a second "sim" key, on line 55, closing its top-level object
NWDAF_TWO_SIMS = (
    Path(NWDAF).read_text().rstrip()[:-1].rstrip()
    + ',\n  "sim": {"duration_ms": 5, "seed": 3}\n}\n'
).encode()


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "cannot read scenario: 'utf-8' codec can't decode"),
    (b"[" * 100000 + b"\n", "parse error: line 1: arrays and objects nested too deeply"),
    (b'{\n  "a": ' + b"1" * 5000 + b"\n}\n", "parse error: line 2: number longer than 4300 digits"),
    (NWDAF_TWO_SIMS, "parse error: line 55: duplicate key 'sim'"),
], ids=["not-utf-8", "nested-too-deep", "int-too-long", "duplicate-key"])
def test_a_malformed_scenario_file_exits_1_with_one_line(data, message, tmp_path, capsys):
    """Text that is not UTF-8, nesting deeper than json's decoder recurses,
    an integer past Python's string-conversion limit and a key repeated in
    one object are bad input like any other parse error: exit 1 and one
    stderr line, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    for command in ("validate", "run", "place"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(bad)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert captured.out == ""


def _nwdaf_with(edit) -> bytes:
    """nwdaf.json after edit(doc), with every "HUGE" string made the literal
    1e400, a number json reads exactly but no float can hold."""
    doc = json.loads(Path(NWDAF).read_text())
    edit(doc)
    return json.dumps(doc, indent=2).replace('"HUGE"', "1e400").encode()


def _nwdaf_tiny(edit) -> bytes:
    """_nwdaf_with(edit), with every "TINY" string made the literal 1e-400:
    json reads it exactly, but the nearest float is 0.0."""
    return _nwdaf_with(edit).replace(b'"TINY"', b"1e-400")


@pytest.mark.parametrize("data, message", [
    (_nwdaf_with(lambda d: d.update(objective={"alpha": 0, "beta": 0})),
     "invalid scenario: objective: "),
    (_nwdaf_with(lambda d: d["workload"]["net/nf1/kpi"].update(payload=[1, "HUGE"])),
     "invalid scenario: workload.net/nf1/kpi.payload[1]: "),
    (_nwdaf_with(lambda d: d["models"][0].update(params=["HUGE"])),
     "invalid scenario: models[0].params[0]: "),
    (_nwdaf_with(lambda d: d["subscriptions"][0].update(
        prefilter={"predicate": "threshold", "args": {"cutoff": "HUGE", "index": 0}})),
     "invalid scenario: subscriptions[0].prefilter.args.cutoff: "),
    (_nwdaf_tiny(lambda d: d["workload"]["net/nf1/kpi"].update(payload=[1, "TINY"])),
     "invalid scenario: workload.net/nf1/kpi.payload[1]: number too small for a float"),
    (_nwdaf_tiny(lambda d: d["models"][0].update(params=["TINY"])),
     "invalid scenario: models[0].params[0]: number too small for a float"),
    (_nwdaf_tiny(lambda d: d["subscriptions"][0].update(
        prefilter={"predicate": "threshold", "args": {"cutoff": "TINY", "index": 0}})),
     "invalid scenario: subscriptions[0].prefilter.args.cutoff: number too small for a float"),
], ids=["zero-weights", "huge-payload", "huge-params", "huge-prefilter-arg",
        "tiny-payload", "tiny-params", "tiny-prefilter-arg"])
def test_an_invalid_value_exits_1_with_one_line(data, message, tmp_path, capsys):
    """An objective whose weights are both zero, and a number too large for a
    float or too small for one where the scenario stores floats, are invalid
    scenarios: exit 1 and one stderr line naming the item, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    for command in ("validate", "run", "place"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(bad)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert captured.out == ""


@pytest.mark.parametrize("data, line", [
    (b'{"topology": {}}', "invalid scenario: top level: missing key 'models'"),
    (b"[1]", "invalid scenario: top level: expected an object"),
    (_nwdaf_with(lambda d: d.update(extra=1)), "invalid scenario: extra: unexpected key"),
], ids=["missing-key", "not-an-object", "extra-key"])
def test_a_rule_broken_at_the_top_level_names_it(data, line, tmp_path, capsys):
    """The document's own rules name the top level, and an unexpected key
    its own name: never an empty path or one with a leading dot."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", str(bad)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == line + "\n"


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_seed_outside_u64_is_a_usage_error(command, capsys):
    """--seed takes what a scenario's sim.seed may hold: 0 to 2**64 - 1."""
    for bad in (-1, 2 ** 64):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", NWDAF, "--seed", str(bad)])
        assert exc.value.code == 2
        assert f"seed must fit in u64: {bad}" in capsys.readouterr().err
    assert main([command, "--scenario", NWDAF, "--seed", str(2 ** 64 - 1)]) == 0
    assert str(2 ** 64 - 1) in capsys.readouterr().out


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


BUNDLED = ("arvr", "federation", "nlp", "nwdaf", "oran")


@pytest.mark.parametrize(
    "name, algorithm",
    [
        # the oracle rows keep the ids they had before the others were pinned
        pytest.param(
            name, algorithm, id=name if algorithm == "oracle" else f"{name}-{algorithm}"
        )
        for algorithm in ("oracle", "upstream", "baseline")
        for name in BUNDLED
    ],
)
def test_place_oracle_matches_golden_bytes(name, algorithm, capsys):
    """The oracle files are frozen from the exhaustive search that scored
    every candidate; the branch-and-bound must print the same bytes. The
    upstream files are a regression pin written by commit d2d1056, and the
    baseline files one written by commit 23c6fde, whose rows were all scored
    by cost; neither is a hand audit: they hold whatever was printed then."""
    scenario = str(SCENARIO_DIR / f"{name}.json")
    assert main(["place", "--scenario", scenario, "--algorithm", algorithm]) == 0
    golden = GOLDEN_DIR / algorithm / f"{name}.json"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("algorithm", ["upstream", "oracle", "baseline"])
@pytest.mark.parametrize("name", BUNDLED)
def test_each_place_row_is_what_a_fresh_cost_scores(name, algorithm, capsys):
    """Upstream and oracle rows read the score their search kept in the
    compile's memo; baseline rows are scored by cost through that memo.
    Each must equal placement.cost on a fresh evaluator with no memo."""
    scenario = str(SCENARIO_DIR / f"{name}.json")
    assert main(["place", "--scenario", scenario, "--algorithm", algorithm]) == 0
    rows = json.loads(capsys.readouterr().out)
    sc = load_scenario(scenario)
    brokers, _ = compile_scenario(sc, algorithm)
    want = []
    for domain in sorted(brokers):
        for iid, inst in sorted(brokers[domain].instances.items()):
            rep = cost(
                inst.placement, inst.pipeline, sc.topology, sc.workload,
                sc.objective, inst.publishers, inst.subscriber,
            )
            want.append((
                iid, inst.placement.assignment,
                None if rep.latency_ms is None else float(rep.latency_ms),
                None if rep.bytes_kb is None else float(rep.bytes_kb),
                None if rep.objective_value is None else float(rep.objective_value),
                rep.feasible,
            ))
    got = [
        (r["instance_id"], r["assignment"], r["latency_ms"], r["bytes_kb"],
         r["objective"], r["feasible"])
        for r in rows
    ]
    assert got == want


@pytest.mark.parametrize("name", BUNDLED)
def test_emit_prints_what_asdict_printed(name):
    """emit builds the report dict without dataclasses.asdict's deep copy;
    the json bytes stay those of json.dumps(asdict(report))."""
    sc = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    for placer in ("upstream", "baseline"):
        report = run(sc, placer=placer)
        assert emit(report, "json") == json.dumps(asdict(report), indent=2) + "\n"


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


@pytest.mark.parametrize("algorithm", ["upstream", "oracle", "baseline"])
def test_the_compile_memo_is_freed_when_compile_and_place_return(
    algorithm, monkeypatch, tmp_path
):
    """compile_scenario, and place with its row scoring, each share one
    TransferMemo across their searches. Nothing keeps it once they return:
    no topology snapshot or broker gains an attribute that could hold it.
    federation has peers, so cross-domain subscriptions place through
    resolve_remote as well."""
    made: list[weakref.ref] = []
    init = TransferMemo.__init__

    def record(self, t):
        init(self, t)
        made.append(weakref.ref(self))

    monkeypatch.setattr(TransferMemo, "__init__", record)
    sc = load_scenario(FEDERATION)
    before = set(vars(sc.topology))
    brokers, _ = compile_scenario(sc, algorithm)
    assert len(made) == 1 and made[0]() is None
    assert set(vars(sc.topology)) == before
    fresh = set(vars(Broker("d0", "n0")))
    assert [set(vars(b)) for b in brokers.values()] == [fresh] * len(brokers)

    made.clear()
    out = tmp_path / "rows.json"
    argv = ["place", "--scenario", FEDERATION, "--algorithm", algorithm]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())
    assert len(made) == 1 and made[0]() is None


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --scenario
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

"""Tests of the benchmark's own code: generator, loss accounting, tracer."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import infersub.cli as cli
from generate import WORKLOADS, generate
from run import REFERENCE_S, SpeedProbe, lost_deliveries
from spans import PATCHES, REPORTED, Tracer

SEEDS = (1, 2)
BUNDLED = Path(cli.__file__).parent / "scenarios" / "nwdaf.json"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_scenario_validates(workload, seed, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(generate(workload, seed).text(), encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_pure(workload):
    a, b = generate(workload, 7), generate(workload, 7)
    assert a.text() == b.text()
    assert (a.owed, a.published, a.scale) == (b.owed, b.published, b.scale)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_moves_inputs_not_scale(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert a.scale == b.scale
    assert a.owed == b.owed and a.published == b.published
    assert a.doc["sim"]["seed"] != b.doc["sim"]["seed"]  # Poisson arrivals
    assert a.text() != b.text()
    if workload == "star-churn":
        assert a.doc["faults"] != b.doc["faults"]
        assert len(a.doc["faults"]) == len(b.doc["faults"])


def test_churn_faults_keep_one_edge_down_at_a_time():
    faults = generate("star-churn", 3).doc["faults"]
    down: set[str] = set()
    for f in sorted(faults, key=lambda f: f["at_ms"]):
        if f["kind"] == "node_down":
            down.add(f["node"])
        elif f["kind"] == "node_up":
            down.discard(f["node"])
        assert len(down) <= 1


def test_lost_counts_only_unreported_deliveries():
    gen = generate("star-churn", 1)
    subs = sorted(gen.owed)
    rows = []
    for sub_id in subs:
        rows.append({"sub_id": sub_id, "delivered": gen.owed[sub_id], "dropped": 0,
                     "filtered": 0, "end_buffered": 0})
    rows[0].update(delivered=gen.owed[subs[0]] - 5, dropped=1, end_buffered=1)
    rows[1].update(delivered=0)
    report = {
        "subscriptions": rows,
        "instances": [{"sub_id": subs[1], "suspended": True}],
    }
    assert lost_deliveries(gen, report) == 3


def test_speed_probe_scales_by_the_samples_inside_the_call():
    probe = SpeedProbe()
    probe.samples = [(1.0, 2e-4), (2.0, 1e-4), (5.0, 9e-4)]
    assert probe.scale(0.5, 2.5) == pytest.approx(REFERENCE_S / 1.5e-4)
    assert probe.scale(4.5, 5.5) == pytest.approx(REFERENCE_S / 9e-4)
    assert probe.scale(3.0, 4.0) > 0  # no sample inside: timed on the spot


def _run_bundled(main) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["run", "--scenario", str(BUNDLED)]) == 0
    return buf.getvalue()


def test_tracer_accounts_for_the_run_and_restores_originals():
    originals = [getattr(owner, attr) for _, owner, attr in PATCHES]
    plain = _run_bundled(cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_bundled(lambda argv: tracer.call(cli.main, argv))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for _, owner, attr in PATCHES] == originals
    assert traced == plain
    root = [s for s in tracer.spans if s[3] == -1]
    assert len(root) == 1 and root[0][0] == "cli.main"
    wall = root[0][2] - root[0][1]
    layers = tracer.per_layer(json.loads(plain)["totals"]["delivered"], wall)
    assert {name for name, _, _ in PATCHES} <= set(REPORTED)
    assert layers["tracing.accounted_share"] == pytest.approx(1.0)
    assert layers["core.route.calls"] > 0
    assert layers["simulator.us_per_delivery"] > 0


def test_benchmark_json_lists_every_metric_the_run_reports():
    from run import END_TO_END_UNITS, ROOT
    from spans import metric_units

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == metric_units()
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)

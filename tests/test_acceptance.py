"""Acceptance suite: one test per shipping criterion, c01 through c11.

Every expected value here is either computed by the independent references
in oracles.py or frozen in tests/golden/ after a hand audit; none were
copied from the implementation under test.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import infersub
from infersub.core import Barrier, CountWindow, StageSpec, TimeWindow, Topic
from infersub.metrics import emit
from infersub.operators import Funnel, FunnelState, funnel_offer, funnel_tick
from infersub.placement import Placement, cost, place_oracle, place_upstream
from infersub.scenario import DataSub, FaultEvent, load_scenario, loads_scenario
from infersub.simulator import compare, run, simulate

from helpers import (
    assignment_nodes,
    barrier_scenario,
    count_window_scenario,
    line_to_core,
    simulate_recording_legs,
    star_scenario,
    trainer_scenario,
)
from oracles import (
    LineInstance,
    RefFunnel,
    gen_analytic_instance,
    gen_funnel_script,
    gen_mixed_instance,
    line_chain_brute_force,
    line_chain_cost,
    line_chain_objective,
)

SCENARIO_DIR = Path(infersub.__file__).parent / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden"
BUNDLED = ["nwdaf", "oran", "arvr", "nlp", "federation"]


def bundled(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def by_sub(report):
    return {s.sub_id: s for s in report.subscriptions}


# ---------------------------------------------------------------------------


def test_c01():
    """Uniform unpinned chains: heuristic and oracle both sit at the publisher."""
    for i in range(100):
        rng = random.Random(41000 + i)
        inst = gen_analytic_instance(rng)
        p, t, w, o, pub, sub = line_to_core(inst)
        want = {f"s{j + 1}": pub for j in range(len(inst.stages))}
        up = place_upstream(p, t, w, o, pub, sub)
        orc = place_oracle(p, t, w, o, pub, sub)
        assert up.assignment == want, f"instance {i}: heuristic {up.assignment}"
        assert orc.assignment == want, f"instance {i}: oracle {orc.assignment}"


def test_c02():
    """Committed gap table: heuristic stays feasible and never regresses."""
    table = json.loads((GOLDEN_DIR / "gap_table.json").read_text())
    rows = table["rows"]
    assert len(rows) >= 50
    for row in rows:
        inst = LineInstance.from_jsonable(row["instance"])
        p, t, w, o, pub, sub = line_to_core(inst)

        # oracle side re-derived from the independent brute force
        brute = line_chain_brute_force(inst)
        assert brute is not None
        assert brute[1] == Fraction(row["oracle_objective"])

        pl = place_upstream(p, t, w, o, pub, sub)
        rep = cost(pl, p, t, w, o, pub, sub)
        assert rep.feasible, f"attempt {row['attempt']}: heuristic went infeasible"
        gap = rep.objective_value / brute[1]
        assert gap >= 1
        assert gap <= Fraction(row["gap"]), (
            f"attempt {row['attempt']}: gap worsened to {float(gap):.6f}"
        )


def test_c03():
    """Upstream placement moves strictly fewer KB than subscriber-side baseline."""
    for name in BUNDLED:
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        sels = [
            Fraction(str(lay["selectivity"]))
            for m in doc["models"] for lay in m["layers"]
        ]
        assert all(s <= 1 for s in sels)
        both = compare(bundled(name))
        up = both["upstream"].totals.kb
        base = both["baseline"].totals.kb
        assert up <= base, f"{name}: {up} > {base}"
        if any(s < 1 for s in sels):
            assert up < base, f"{name}: expected a strict win, got {up} == {base}"


def test_c04():
    """Identical subscribers share one execution of each model stage."""
    for fanout in (1, 2, 8):
        rep = run(star_scenario(fanout))
        stages = {(s.stage_id, s.exec_id): s.executions for s in rep.stages}
        assert len(stages) == 2, f"fanout {fanout}: {sorted(stages)}"
        assert all(n == 20 for n in stages.values()), f"fanout {fanout}: {stages}"
        assert rep.totals.delivered == 20 * fanout


def test_c05():
    """Funnels conserve: barriers emit min(n, m), count windows emit n // w."""
    assert by_sub(run(barrier_scenario(10, 7)))["joined"].delivered == 7
    assert by_sub(run(barrier_scenario(5, 5)))["joined"].delivered == 5
    assert by_sub(run(count_window_scenario(pubs=10, n=3)))["batched"].delivered == 3


def test_c06():
    """Privacy split: no raw-tagged publication ever crosses a link."""
    w, legs = simulate_recording_legs(bundled("nlp"))
    assert w.report().totals.raw_link_crossings == 0
    assert legs, "the run moves publications over links"
    for _, frm, to, pub in legs:
        assert not (pub.tag == "raw" and frm != to), (frm, to)
    # the counter is live: without a privacy split raw hops do cross links
    assert run(bundled("arvr")).totals.raw_link_crossings > 0


# c07 kills each of these nodes at 2500 ms in its bundled scenario
C07_KILLS = {
    "nwdaf": ["ag1", "ag2"],
    "oran": ["du1", "du2", "cu1"],
    "arvr": ["e1", "e2"],
    "nlp": ["w1", "w2"],
    "federation": ["ne1", "ne2", "se"],
}


def c07_kill(sc, nid):
    fault = FaultEvent(at_ms=2500, kind="node_down", node=nid, link=None)
    return dataclasses.replace(sc, faults=(fault,))


def test_c07():
    """Any mid-pipeline node can die: repair is bounded, streams stay whole."""
    total_repairs = 0
    for name, nodes in C07_KILLS.items():
        sc = bundled(name)
        bound_us = (sc.sim.heartbeat_misses + 1) * sc.sim.heartbeat_ms * 1000
        data_topics = {
            s.sub_id: [
                t for t in sc.bindings
                if infersub.core.match_filter(s.kind.filter, Topic.parse(t))
            ]
            for s in sc.subscriptions if isinstance(s.kind, DataSub)
        }
        for nid in nodes:
            w = simulate(c07_kill(sc, nid))
            rep = w.report()
            ctx = f"{name}/kill {nid}"

            assert rep.totals.dropped == 0, ctx
            assert rep.totals.suspended == 0, ctx
            total_repairs += rep.totals.repairs
            for durations in w.recovery_us.values():
                for d in durations:
                    assert d <= bound_us, f"{ctx}: repair took {d / 1000:.1f} ms"

            per_sub: dict[str, int] = {}
            for (sub, (_, topic)), seqs in w.seen.items():
                assert max(seqs) - min(seqs) + 1 == len(seqs), (ctx, sub, topic)
                per_sub[sub] = per_sub.get(sub, 0) + len(seqs)
            for sub, n in per_sub.items():
                assert n == w.delivered.get(sub, 0), (ctx, sub)

            # data taps must receive every publication ever injected
            for sub, topics in data_topics.items():
                expected = sum(w.topic_state[t].emitted for t in topics)
                assert w.delivered.get(sub, 0) == expected, (ctx, sub)

            if name == "nlp":
                assert rep.totals.raw_link_crossings == 0, ctx
    assert total_repairs >= 1, "no kill exercised the repair path"


@pytest.mark.parametrize(
    "name, nid",
    [
        pytest.param(name, nid, id=f"{name}-{nid}")
        for name, nodes in C07_KILLS.items()
        for nid in nodes
    ],
)
def test_c07_kill_reports_match_golden_bytes(name, nid):
    """A regression pin, not a hand audit: tests/golden/faults/ holds the
    `run` JSON each c07 kill printed at commit 38021e3, before replays and
    buffer settling moved behind the broker. c07's invariants pass for more
    than one replay order; these bytes hold repair, replay and its dedup to
    the exact counts (dup_suppressed, filtered, end_buffered)."""
    got = emit(run(c07_kill(bundled(name), nid)), "json")
    assert got == (GOLDEN_DIR / "faults" / f"{name}-{nid}.json").read_text()


def test_c08():
    """Remote model resolution pays the bridge once; a local copy pays nothing."""
    doc = json.loads((SCENARIO_DIR / "federation.json").read_text())
    rep = run(loads_scenario(json.dumps(doc)))
    bridges = [l for l in rep.links if l.bridge]
    assert len(bridges) == 1
    assert bridges[0].kb == 256.0  # the 256 KB model artifact, nothing else
    assert rep.totals.delivered == 50

    local = copy.deepcopy(doc)
    clone = copy.deepcopy(doc["models"][0])
    clone["domain_id"] = "north"
    local["models"].append(clone)
    rep2 = run(loads_scenario(json.dumps(local)))
    assert [l.kb for l in rep2.links if l.bridge] == [0.0]
    assert rep2.totals.delivered == 50


def test_c09():
    """Same scenario, same seed: byte-identical reports, any seed, every time."""
    for name in BUNDLED:
        sc = bundled(name)
        for seed in (sc.sim.seed, 12345, 987654321):
            first = emit(run(sc, seed), "json")
            second = emit(run(sc, seed), "json")
            assert first == second, f"{name} seed {seed}"


def test_c10():
    """Update rounds apply once, in version order, despite loss and replay."""
    w = simulate(trainer_scenario(fault_at_ms=144))
    rep = w.report()
    s = by_sub(rep)["upd-s"]
    assert s.applied_versions == (1, 2, 3, 4)
    assert all(a < b for a, b in zip(s.applied_versions, s.applied_versions[1:]))
    assert s.dup_suppressed >= 1, "the replayed round was expected and suppressed"
    broker = next(iter(w.brokers.values()))
    desc = broker.models["fed"]
    assert desc.version == 4
    assert desc.params == (6.0, 9.0, 12.0, 15.0)


def test_c11():
    """Funnel steps and chain costs agree with the single-step references."""
    steps = 0
    for attempt in range(200):
        rng = random.Random(7000 + attempt)
        inputs = tuple(f"i{j}" for j in range(rng.randint(1, 3)))
        config, script = gen_funnel_script(rng, inputs)
        st = _package_funnel(config)
        ref = _ref_funnel(config)
        for entry in script:
            if entry[0] == "tick":
                if config["mode"] != "time":
                    continue
                st, out = funnel_tick(st, entry[1])
                want = ref.tick(entry[1])
            else:
                _, iid, p, now = entry
                st, out = funnel_offer(st, p, now, iid)
                want = ref.offer(p, now, iid)
            steps += 1
            assert out == want, (config, entry)
            pending = {(i, str(p.topic), p.source, p.seq) for i, p in st.pending}
            assert pending == ref.pending_pairs(), (config, entry)
    assert steps >= 1000

    for i in range(100):
        rng = random.Random(52000 + i)
        inst = gen_mixed_instance(rng)
        p, t, w, o, pub, sub = line_to_core(inst)
        combo = tuple(
            rng.randrange(len(inst.node_ids)) for _ in range(len(inst.stages))
        )
        rep = cost(Placement(assignment_nodes(inst, combo)), p, t, w, o, pub, sub)
        lat, kb = line_chain_cost(inst, combo)
        assert rep.latency_ms == lat
        assert rep.bytes_kb == kb
        assert rep.objective_value == line_chain_objective(inst, combo)


# ---------------------------------------------------------------------------


def _package_funnel(config) -> FunnelState:
    mode = config["mode"]
    if mode == "barrier":
        trigger = Barrier(tuple(config["inputs"]))
    elif mode == "count":
        trigger = CountWindow(config["n"])
    else:
        trigger = TimeWindow(config["delta_ms"])
    stage = StageSpec(
        "join", Funnel(config["fn"], trigger), 0, 0, config["selectivity"]
    )
    return FunnelState(stage, Topic.parse("pipe/join"))


def _ref_funnel(config) -> RefFunnel:
    return RefFunnel(
        mode=config["mode"],
        stage_id="join",
        out_topic="pipe/join",
        selectivity=config["selectivity"],
        fn=config["fn"],
        inputs=tuple(config["inputs"]),
        n=config["n"],
        delta_ms=config["delta_ms"],
    )

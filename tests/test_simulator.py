"""End-to-end runs over the bundled scenarios plus small synthetic ones,
checking conservation laws and frozen metric values."""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import infersub
from infersub import simulator
from infersub.broker import Broker
from infersub.core import Publication, Topic
from infersub.metrics import emit, report_from_json
from infersub.placement import WorkloadSpec
from infersub.scenario import FaultEvent, load_scenario, loads_scenario
from infersub.simulator import (
    _exp_gap_us,
    _latency_stats,
    _periodic_us,
    _Seqs,
    _World,
    run,
    simulate,
)

from helpers import (
    BROKER_DOWN,
    BROKER_DOWN_G_BACK,
    G_BLIP,
    barrier_scenario,
    blip_scenario,
    build_scenario,
    count_window_scenario,
    link,
    node,
    random_faults,
    run_digest,
    simulate_recording_legs,
    star_scenario,
    time_window_scenario,
    trainer_scenario,
    two_publisher_scenario,
)
from oracles import ref_exp_gap_us, ref_latency_stats, ref_periodic_us

SCENARIO_DIR = Path(infersub.__file__).parent / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden"
PERFBENCH_DIR = Path(__file__).parent.parent / "perfbench"


def bundled(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def by_sub(report):
    return {s.sub_id: s for s in report.subscriptions}


# ---------------------------------------------------------------------------
# Frozen numbers for one bundled scenario, hand-audited once.


def test_nwdaf_headline_numbers():
    rep = run(bundled("nwdaf"))
    assert rep.totals.published == 140
    subs = by_sub(rep)

    tap = subs["tap-nf1"]
    assert (tap.accepted, tap.delivered) == (50, 50)
    assert tap.mean_latency_ms == pytest.approx(10.018, abs=1e-9)
    assert tap.p95_latency_ms == pytest.approx(10.018, abs=1e-9)

    fuse = subs["fuse-mon"]
    assert fuse.accepted == 140
    assert fuse.delivered == 25
    assert fuse.filtered == 63
    assert fuse.end_buffered == 2
    # three-input barrier: every accepted input is either part of a delivered
    # emission, superseded (filtered), or still pending when time runs out
    assert fuse.accepted == 3 * fuse.delivered + fuse.filtered + fuse.end_buffered


@pytest.mark.parametrize("name", ["nwdaf", "oran", "arvr", "nlp", "federation"])
def test_identity_subscription_conservation(name):
    rep = run(bundled(name))
    for s in rep.subscriptions:
        if s.applied_versions:
            continue  # model-update subs account differently
        assert s.delivered + s.filtered + s.dropped <= s.accepted
        assert s.end_buffered >= 0


def test_arvr_report_matches_golden_bytes():
    rep = run(bundled("arvr"))
    golden = (GOLDEN_DIR / "arvr_metrics.json").read_text()
    assert emit(rep, "json") == golden


# ---------------------------------------------------------------------------
# Synthetic scenarios with closed-form outcomes.


@pytest.mark.parametrize("topic", ["net/nf1/kpi", "net/nf3/kpi"])  # Poisson, periodic
def test_a_topic_with_count_zero_publishes_nothing(topic):
    """WorkloadEntry accepts count=0 (a scenario file asks for >= 1): the
    topic is never scheduled, and the other topics publish as before."""
    sc = bundled("nwdaf")
    topics = dict(sc.workload.topics)
    topics[topic] = dataclasses.replace(topics[topic], count=0)
    world = simulate(dataclasses.replace(sc, workload=WorkloadSpec(topics)))
    assert topic not in world.pub_seq
    full = simulate(sc).pub_seq
    assert world.pub_seq == {t: n for t, n in full.items() if t != topic}


def test_disjoint_publishers_do_not_perturb_each_other():
    solo = run(two_publisher_scenario(extra_topic=False))
    both = run(two_publisher_scenario(extra_topic=True))
    a = by_sub(solo)["tap1"]
    b = by_sub(both)["tap1"]
    assert (a.accepted, a.delivered, a.filtered) == (b.accepted, b.delivered, b.filtered)
    assert a.mean_latency_ms == b.mean_latency_ms
    assert a.p95_latency_ms == b.p95_latency_ms


def test_count_window_batches_exactly():
    rep = run(count_window_scenario(pubs=10, n=3))
    s = by_sub(rep)["batched"]
    assert s.delivered == 3
    assert s.end_buffered == 1  # 10 = 3*3 + 1 leftover


def test_time_window_flushes_everything_before_the_end():
    rep = run(time_window_scenario(pubs=8, delta_ms=40))
    s = by_sub(rep)["windowed"]
    assert s.delivered >= 1
    assert s.end_buffered == 0
    assert s.accepted == 8


def test_barrier_pairs_off_minimum():
    rep = run(barrier_scenario(count_a=10, count_b=7))
    s = by_sub(rep)["joined"]
    assert s.delivered == 7


def test_trainer_rounds_without_faults():
    rep = run(trainer_scenario(fault_at_ms=None))
    s = by_sub(rep)["upd-s"]
    assert s.applied_versions == (1, 2, 3, 4)
    assert s.delivered == 4  # registration snapshot + three aggregated rounds


def test_link_fault_blocks_hops_until_link_up():
    sc = two_publisher_scenario(extra_topic=False)
    ends = ("c", "s1")  # the subscriber's access link
    down_ms, up_ms = 400, 900
    sc = dataclasses.replace(sc, faults=(
        FaultEvent(at_ms=Fraction(down_ms), kind="link_down", link=ends),
        FaultEvent(at_ms=Fraction(up_ms), kind="link_up", link=ends),
    ))
    w, legs = simulate_recording_legs(sc)
    crossings = [t for t, a, b, _ in legs if tuple(sorted((a, b))) == ends]
    assert not [t for t in crossings if down_ms * 1000 <= t < up_ms * 1000]
    assert [t for t in crossings if t >= up_ms * 1000]
    assert w.lost_transfers > 0


def test_a_hop_dropped_in_flight_is_not_recorded():
    """A publication already on its way to c when c-s1 goes down is dropped
    at c: its p1-c leg is recorded, no c-s1 leg is, and the drop is counted."""
    sc = two_publisher_scenario(extra_topic=False)
    _, clean = simulate_recording_legs(sc)
    hops: dict[tuple[str, int], list[tuple[int, str, str]]] = {}
    for t, a, b, pub in clean:
        hops.setdefault((str(pub.topic), pub.seq), []).append((t, a, b))
    key, ((t1, a, b), (t2, _, c)) = next(
        (key, legs) for key, legs in hops.items() if len(legs) == 2
    )
    assert (a, b, c) == ("p1", "c", "s1")
    sc = dataclasses.replace(sc, faults=(
        FaultEvent(at_ms=Fraction(t1 + t2, 2000), kind="link_down", link=(b, c)),
        FaultEvent(at_ms=Fraction(t2 + 1000, 1000), kind="link_up", link=(b, c)),
    ))
    w, legs = simulate_recording_legs(sc)
    assert [(t, x, y) for t, x, y, pub in legs if (str(pub.topic), pub.seq) == key] == [
        (t1, a, b)
    ]
    assert w.lost_transfers == 1


def _diamond_scenario(faults=()):
    """p publishes ten times, every 100 ms, to a tap on s: over p-b-s
    (2 ms) while p-b is up, else over p-c-s (4 ms)."""
    return build_scenario(
        nodes=[node(n, "edge", 8, 256, "d") for n in ("p", "b", "c", "s")],
        links=[
            link("p", "b", 1, 1000), link("b", "s", 1, 1000),
            link("p", "c", 2, 1000), link("c", "s", 2, 1000),
        ],
        brokers={"d": "b"},
        bindings={"d/p/x": "p"},
        subscriptions=[
            {"sub_id": "tap", "subscriber": "s", "kind": "data", "filter": "d/p/x"}
        ],
        workload={
            "d/p/x": {"size_bytes": 512, "rate_per_s": 10, "periodic": True,
                      "count": 10},
        },
        faults=list(faults),
        sim={"duration_ms": 2000, "seed": 1},
    )


def test_a_link_fault_reroutes_and_its_restore_returns_to_the_loaded_route():
    """p-b is down from 250 to 650 ms: the publications of 300-600 ms take
    p-c-s, those before and after p-b-s, and the run ends on the loaded
    topology's plans."""
    w, legs = simulate_recording_legs(_diamond_scenario([
        {"at_ms": 250, "kind": "link_down", "link": ["b", "p"]},
        {"at_ms": 650, "kind": "link_up", "link": ["b", "p"]},
    ]))
    paths: dict[int, list[str]] = {}
    for _, a, b, pub in legs:
        paths.setdefault(pub.seq, [a]).append(b)
    assert paths == {
        seq: ["p", "c", "s"] if 4 <= seq <= 7 else ["p", "b", "s"]
        for seq in range(1, 11)
    }
    assert w.lost_transfers == 0
    assert w.topo is w.sc.topology and w._plans is w._root_plans


@pytest.mark.parametrize("name", ["nwdaf", "oran", "arvr", "nlp", "federation"])
def test_the_world_keeps_plans_of_the_loaded_topology_and_the_current_snapshot_only(
    name, monkeypatch
):
    """Before each fault and at the end, the plans in use are the loaded
    topology's own, when it is current, or else a separate set, each plan
    on the current snapshot's route; the loaded topology's plans all follow
    its own routes."""
    checks = []

    def check(world):
        if world.topo is world.sc.topology:
            assert world._plans is world._root_plans
        else:
            assert world._plans is not world._root_plans
        for plans, topo in ((world._plans, world.topo),
                            (world._root_plans, world.sc.topology)):
            for (origin, dest, _), plan in plans.items():
                got = topo.shortest(origin, dest)
                assert (plan and plan[0]) == (got and got[2])
        checks.append(len(world._plans))

    on_fault = _World._on_fault

    def checking(world):
        check(world)
        on_fault(world)

    monkeypatch.setattr(_World, "_on_fault", checking)
    for seed in range(4):
        check(simulate(random_faults(bundled(name), seed)))
    assert any(checks)


def test_link_traffic_and_leg_times_are_exact():
    """Two payload sizes and a model fetch cross the bridge a1-b; the data
    goes on over b-a2. Each leg takes ceil((latency + KB / bandwidth) * 1000)
    µs, and each link reports the exact KB it carried."""
    latency = {("a1", "b"): Fraction("0.25"), ("a2", "b"): Fraction("0.5")}
    bandwidth = {("a1", "b"): Fraction(3), ("a2", "b"): Fraction(8)}
    sizes = {"da/a1/small": 100, "da/a1/big": 3000}
    count, artifact_kb = 3, 5

    def leg_us(ends, size):
        return math.ceil((latency[ends] + Fraction(size, 1024) / bandwidth[ends]) * 1000)

    periodic = {"rate_per_s": 10, "periodic": True, "count": count}
    sc = build_scenario(
        nodes=[
            node("a1", "edge", 8, 1024, "da"),
            node("a2", "edge", 8, 1024, "da"),
            node("b", "edge", 8, 1024, "db"),
        ],
        # a1-b-a2 (0.75 ms) beats the direct a1-a2 link, which keeps da connected
        links=[link("a1", "b", 0.25, 3), link("a2", "b", 0.5, 8), link("a1", "a2", 10, 100)],
        brokers={"da": "a1", "db": "b"},
        peers=[{"domains": ["da", "db"], "link": ["a1", "b"]}],
        models=[{
            "model_id": "far", "version": 1, "task_tag": "telemetry",
            "domain_id": "da", "artifact_kb": artifact_kb,
            "layers": [{"compute_cost": 1, "mem_mb": 16, "selectivity": 1}],
        }],
        bindings={"da/a1/small": "a1", "da/a1/big": "a1", "db/b/t": "b"},
        subscriptions=[
            {"sub_id": "tap", "subscriber": "a2", "kind": "data", "filter": "da/a1/+"},
            # model known only in da: fetched over the bridge, then run on b
            {"sub_id": "far", "subscriber": "b", "kind": "inference",
             "model_id": "far", "filter": "db/b/t", "k": 1},
        ],
        workload={
            **{t: {"size_bytes": size, **periodic} for t, size in sizes.items()},
            "db/b/t": {"size_bytes": 64, **periodic},
        },
        sim={"duration_ms": 2000, "seed": 3},
    )
    w, recorded = simulate_recording_legs(sc)
    legs: dict[tuple[str, int], list[tuple[int, str, str]]] = {}
    for t, a, b, pub in recorded:
        legs.setdefault((str(pub.topic), pub.seq), []).append((t, a, b))
    assert sorted(legs) == sorted((t, seq) for t in sizes for seq in range(1, count + 1))
    want_latencies = []
    for (topic, _), hops in legs.items():
        size = sizes[topic]
        assert [(a, b) for _, a, b in hops] == [("a1", "b"), ("b", "a2")]
        assert hops[1][0] - hops[0][0] == leg_us(("a1", "b"), size)
        want_latencies.append(leg_us(("a1", "b"), size) + leg_us(("a2", "b"), size))
    # latencies are whole µs from publication to delivery, kept as a
    # {µs: deliveries} histogram
    assert all(type(us) is int for us in w.latencies["tap"])
    assert w.latencies["tap"] == Counter(want_latencies)

    data_kb = Fraction(count * sum(sizes.values()), 1024)
    want_kb = {("a1", "a2"): Fraction(0), ("a1", "b"): data_kb + artifact_kb,
               ("a2", "b"): data_kb}
    rep = w.report()
    assert {(ln.a, ln.b): ln.kb for ln in rep.links} == {
        ends: float(kb) for ends, kb in want_kb.items()
    }
    assert rep.totals.kb == float(sum(want_kb.values()))
    # the fetched model ran on every publication after the first, which came
    # at 0 ms, before the fetch's leg_us(("a1", "b"), 5 * 1024) = 1917 µs ended
    assert by_sub(rep)["far"].delivered == count - 1


def test_last_heartbeat_tick_falls_at_duration():
    sc = bundled("oran")
    hb_ms, misses = sc.sim.heartbeat_ms, sc.sim.heartbeat_misses
    duration_ms = 2000
    # du1 hosts a stage of an active instance; a fault at a tick counts a miss
    # on that same tick, so the last miss lands (misses - 1) ticks later
    at_ms = duration_ms - (misses - 1) * hb_ms

    def repairs(fault_ms):
        fault = FaultEvent(at_ms=Fraction(fault_ms), kind="node_down", node="du1")
        sim = dataclasses.replace(sc.sim, duration_ms=duration_ms)
        return run(dataclasses.replace(sc, faults=(fault,), sim=sim)).totals.repairs

    assert repairs(at_ms) == 1
    assert repairs(at_ms + hb_ms) == 0


# ---------------------------------------------------------------------------
# Node faults mid-job and while the broker node is down, on blip_scenario:
# both chains run on g (two stages of 63 µs and 3125 µs per publication),
# and the broker sits on h.


def _busy_ms(rep, node_id):
    return next(n.busy_ms for n in rep.nodes if n.node_id == node_id)


def test_both_chains_of_the_blip_scenario_run_on_g():
    rep = run(blip_scenario())
    assert {st.node for st in rep.stages} == {"g"}
    assert _busy_ms(rep, "g") == pytest.approx(510.080, abs=1e-9)
    assert rep.totals.executions == 320


def test_a_job_killed_by_a_node_blip_is_billed_to_the_blip_and_never_counted():
    """The 3125 µs job g started at 2.065 ms is killed at 2.2 ms. Its
    completion event still fires at 5.19 ms, while a newer job runs on g: it
    must not end that job or count an execution. g is billed the 0.135 ms
    the killed job ran: 510.080 - 3.125 + 0.135 ms."""
    rep = run(blip_scenario(G_BLIP))
    assert _busy_ms(rep, "g") == pytest.approx(507.090, abs=1e-9)
    assert rep.totals.executions == 319
    assert rep.totals.repairs == 0


def test_a_repair_waits_for_the_broker_node_and_runs_when_it_is_back():
    rep = run(blip_scenario(BROKER_DOWN))
    assert rep.totals.repairs == 2
    assert [i.recovery_ms for i in rep.instances] == [(290.0,), (290.0,)]


def test_a_waiting_repair_is_dropped_when_the_failed_node_is_back_first():
    rep = run(blip_scenario(BROKER_DOWN_G_BACK))
    assert rep.totals.repairs == 0
    assert [i.recovery_ms for i in rep.instances] == [(), ()]


# ---------------------------------------------------------------------------
# One event per transfer: the fate and the equal-µs order of every transfer
# are those of forwarding hop by hop.

# run_digest(random_faults(bundled(name), seed)) for seeds 0-7, taken when
# transfers were still forwarded one heap event per hop
FAULT_SCHEDULE_DIGESTS = {
    "arvr": (
        "3a64174a9efb02c6e146dabbcd5a07d62504d26c194fbfeb47fcb939295d4af0",
        "3a64174a9efb02c6e146dabbcd5a07d62504d26c194fbfeb47fcb939295d4af0",
        "3a64174a9efb02c6e146dabbcd5a07d62504d26c194fbfeb47fcb939295d4af0",
        "3a64174a9efb02c6e146dabbcd5a07d62504d26c194fbfeb47fcb939295d4af0",
        "4d2d3687dac96de29fd239f6945fd7c0c960c5334bf9bcc6c5cc209b3997eb27",
        "e11cf4cf122695cc897eee686053133a51fc37413d7a63d270082c7a5fc4f57c",
        "8633b90c15265ce80e352a38aa34182f345bb68c4ac291e07a0ce13bc83f083d",
        "3a64174a9efb02c6e146dabbcd5a07d62504d26c194fbfeb47fcb939295d4af0",
    ),
    "federation": (
        "cca1f3b8ae217cac24b56100d45ca82f0aa82ab2c87572b4ef2a5586536f5a28",
        "5d78cd8b7488ea1a97a06d222711ffe7a0424051807ba733d64f8ef3a2a0f1c1",
        "0a40d5345a22775284468429d90f0c14687ba3758d7cb835f90ae61df5fe00ff",
        "0a40d5345a22775284468429d90f0c14687ba3758d7cb835f90ae61df5fe00ff",
        "ef156ec309c692c4778a436d6192b4448d765b996772ad59bfb5386ab3205652",
        "aa57628be3f50e2547573e4363f8e713ad278283d07c1934987fa8e00c12f6aa",
        "43408b57e12121922a58ba7ef2614f3557b84fc2ae312f05e92b93f01defabee",
        "0a40d5345a22775284468429d90f0c14687ba3758d7cb835f90ae61df5fe00ff",
    ),
    "nlp": (
        "6c6348b893864e5c4e73ae4e7ba9b27346632d3d6e5a1cdf881aaca6e0f6bf7b",
        "8e64d7b0676dbc232aacf5e27c49c86a76f36f9842421b75c9547cbab0f02384",
        "84986736a70f0101c9d6dd48fceea6e87fda6e65f306c9fe2768d0394bae8a18",
        "4376036bf8a1478e8345616dda4af4be4f25b819d0b948a848925ef006d42e31",
        "4b047a46ba178a081e03324511898e022346afdab0d03bbe5b130ed59f94e01f",
        "ee3650782aef4d484dce94ceba25a32bd5bb7182311bb7e8cef91048850adf8b",
        "529c7a0cf7b91e895f9cc2a8bb18dcd977b1ff9a5c1e8dc2980d9515c01693b8",
        "439395c770ac3e8411a6c7229617d515db0ffa37bfdb91fc24f7588f7ee6c55e",
    ),
    "nwdaf": (
        "1e1027ebde5ab822a94fbf687e79bd465dd9cf89ba8b18ce7a098c32c5d215bb",
        "9a7c744e6ea2247ee70a1da2528d83fcbe0c451673e1dfef2a7702933a78ae3a",
        "f96dd1c7835023c260e17b64798e716a9a8b36465e16f439eb5bbead3e0154db",
        "69219d57d3252287cd2c080ba55bf8a5940765b2f611039240b2bb70754de1e2",
        "d2a509202a686a8c58e95406eb57b3b4c72c41d2f8d6358bdd3eded9cebff798",
        "87d65eb4e41679db44a81c517247df62c004c25f7362069993a3de70e8ec0127",
        "0a2b92033da53021d7db6f99b938ebf781be57831ff1759d0e0bd3f1d310f30c",
        "541092f5eda88e62fddb29fa5e8753990848d864f044e13bb2e397763957a5ce",
    ),
    "oran": (
        "0cc33f08c8de416df3606b20c7db6cc355aaaf3dd2a7ab66cd65993dcc22a2d4",
        "fa132b399256b123035dc179ff32fbf3122e562f5fd07d0ccb95557e1d6ef9d1",
        "e5b8ecb5ef4783cc720eb12eee318753537401d11faebcbe0241a6336292256a",
        "31f9fc07b702d1b46338ae7ead6723cf87d6df56d14e203b3f7072087c11b131",
        "f2c623901d575fad2074363ad03fd1cd81a615b5c9f7ac5dd8686e7622df210d",
        "c9f760c83d466525b0ca0868e515c71353ad10f1d4d0fb1399d62693429e5902",
        "5e3a7dfa4a6cc15e3eba0e4ab0610501e648378b4cc7cbf68f5591783f68a2ad",
        "c6bf083947f8716303aad3abe8f5655486d03baec85c625c2206d123dc23186d",
    ),
}


@pytest.mark.parametrize("name", sorted(FAULT_SCHEDULE_DIGESTS))
def test_random_fault_schedules_run_as_pinned(name):
    """Node, link and broker-node blips, overlapping and in one µs, several
    of them cutting transfers and acks in flight: report, lost transfers and
    legs as forwarding hop by hop gave them."""
    sc = bundled(name)
    got = tuple(run_digest(random_faults(sc, seed)) for seed in range(8))
    assert got == FAULT_SCHEDULE_DIGESTS[name]


# run_digest(random_faults(sc, seed)) for seeds 0-7 on helper scenarios with
# a time window, a barrier and prefilters, taken with a node's funnel states
# kept in its one record and routes read from per-source shortest-path trees,
# once random_faults drew fault times only from publications a topic makes
HELPER_FAULT_SCHEDULES = {
    "time-window": lambda: time_window_scenario(pubs=8, delta_ms=40),
    "barrier": lambda: barrier_scenario(count_a=10, count_b=7),
    "prefilter": lambda: blip_scenario(prefilter=True),
}
HELPER_FAULT_SCHEDULE_DIGESTS = {
    "time-window": (
        "5ec9e86248512a1f926c36a9dd6dd9330d47359833044e1753395b97dca8e7b9",
        "31ac5a43c4a00a3ee00da4b0703fc847b2bfbcb8b5b392a3f392bfe11003862e",
        "a7d656604048075731c70830b9365d8a45475cf32af24a99c18cc8b1612adc91",
        "652b0d83c86837d91452e1e962c45fa3f99498b7307ab9b844f7bd210d1eadca",
        "17e69c08b26598b4371d41b12c5da2fe9ade3f27765aad4a30f48782265e6bb2",
        "ae8ebe37056d4ee189bdd30462381fb9108d6a91e771d702a01ae83326667b0e",
        "35a28d10eee15c95367c8e097258b1b242e8065a82be8cf0a5d3c89d90e41ab1",
        "17e69c08b26598b4371d41b12c5da2fe9ade3f27765aad4a30f48782265e6bb2",
    ),
    "barrier": (
        "90176c9789f8bdbe3cae277b578de01a0a7aec572632a6622d23034bd03bc256",
        "d6bf705b42db6056850003ac9cd78c43dcf95e929c869ae74d39f1a02e0dde93",
        "25723ea220e211c8e408d236ad797a7fea0bf2727fdee4b7e919bd21c11603ff",
        "21d6bfa1029300b74e3ded26264fe33d4f0666ec07eac7d9f4b5fc595ca1171f",
        "865c9978e6a1803cbe79930bde67ef5afa69d0daf13ff070ef8c5aa8b1bf2c6f",
        "80bbb67cbdd0c7919768857fd74dd9b9c0f6558c1d8fd50199acf556b752c51d",
        "752cd50978b40522b4ca3408c166ec69c33b27cf77cb91def148ee6a7674463a",
        "8239cd7f73ffb16fb8bfa2380dcd404e17853b4e6539fd22bed1a5e7f7d2e69a",
    ),
    "prefilter": (
        "a71ff454839f3ae37c909c930d318328907cb7e45b1804fe48c701ca0a6fa29b",
        "3af78af45d64f6b74aadcc842dfcd0e51ed237c78449c4455b3ee41b456d7ea7",
        "c4af735b4e323da8d75c772485a705673c350b67c87a63d86d01e342ce05645c",
        "c4af735b4e323da8d75c772485a705673c350b67c87a63d86d01e342ce05645c",
        "87e71b1f80e82e599b694d102f394edcd2394eec5207c6c3a20e92ee9a138694",
        "5cdafa872f4e54cb2ade1c7a8c1a5a821cd32ef57047d2dd969e51328d358173",
        "3e7d27c733d618035546e89deda5ca796cbdcaacb4ae08e19c871143f12575f2",
        "c4af735b4e323da8d75c772485a705673c350b67c87a63d86d01e342ce05645c",
    ),
}


@pytest.mark.parametrize("name", sorted(HELPER_FAULT_SCHEDULE_DIGESTS))
def test_random_fault_schedules_on_funnels_and_prefilters_run_as_pinned(name):
    """Blips on the nodes of a time window, a barrier and prefilter gates:
    report, lost transfers and legs as pinned, funnel states dropped with
    the node that holds them."""
    sc = HELPER_FAULT_SCHEDULES[name]()
    got = tuple(run_digest(random_faults(sc, seed)) for seed in range(8))
    assert got == HELPER_FAULT_SCHEDULE_DIGESTS[name]


def test_no_raw_publication_crosses_a_link_under_random_faults_on_nlp(monkeypatch):
    """c06 under replay: nlp's privacy split keeps each mapping prefix on
    its publisher, so the broker buffers raw publications and maps each
    one through its cut when a replay reads it. Under random_faults seeds
    0-7 no raw-tagged leg crosses a link, and some schedule replays an
    entry through a non-empty cut."""
    import infersub.broker as broker_module

    replayed = []  # only a replay maps in the broker

    def counting(stage, pub):
        replayed.append(stage.stage_id)
        return infersub.apply_mapping(stage, pub)

    monkeypatch.setattr(broker_module, "apply_mapping", counting)
    for seed in range(8):
        w, legs = simulate_recording_legs(random_faults(bundled("nlp"), seed))
        assert w.report().totals.raw_link_crossings == 0, seed
        assert legs, seed
        for _, frm, to, pub in legs:
            assert not (pub.tag == "raw" and frm != to), (seed, frm, to)
    assert replayed


# ---------------------------------------------------------------------------
# No-op ups: a link_up or node_up on a target that is up at that µs changes
# nothing. Each one moves the next fault earlier, so the transfers it spans
# leave the whole-plan path for the one that checks faults, and a link_up
# on a faulted snapshot moves to a fresh one, which plans anew.

NOOP_UP_SCENARIOS = ("arvr", "federation", "nlp", "nwdaf", "oran", "star-churn")


def _load_noop_up_scenario(name):
    if name != "star-churn":
        return bundled(name)
    generate = sys.modules.get("generate")
    if generate is None:
        spec = importlib.util.spec_from_file_location(
            "generate", PERFBENCH_DIR / "generate.py"
        )
        generate = sys.modules["generate"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
    return loads_scenario(generate.generate(name, 101).text())


def _outcome(sc):
    """What a no-op fault must not change: report bytes, lost transfers and
    lost acks."""
    w = simulate(sc)
    return emit(w.report()), w.lost_transfers, w.lost_acks


@functools.lru_cache(maxsize=None)
def _random_fault_run(name, seed):
    """random_faults(seed) on scenario name, its run's outcome, and the µs
    at which its faults apply with the set of down targets after each."""
    sc = random_faults(_load_noop_up_scenario(name), seed)
    return sc, _outcome(sc), _down_timeline(sc)


def _down_timeline(sc):
    """The nodes and links (sorted ends) of sc that are down once every
    fault of each µs has applied, as ([µs], [down]), with -1 for the loaded
    state. Faults apply in the simulator's order: by µs, a down before an
    up, then in file order."""
    down = set(sc.topology.down_nodes)
    down.update(ends for ends, l in sc.topology.links.items() if l.state != "up")
    times, downs = [-1], [frozenset(down)]
    for at, up, _, target in sorted(
        (simulator._ceil_us(f.at_ms), f.kind.endswith("_up"), i,
         f.node if f.link is None else tuple(sorted(f.link)))
        for i, f in enumerate(sc.faults)
    ):
        if up:
            down.discard(target)
        else:
            down.add(target)
        if times[-1] != at:
            times.append(at)
            downs.append(None)
        downs[-1] = frozenset(down)
    return times, downs


def _up_event(t_us, target):
    kind = "link" if isinstance(target, tuple) else "node"
    return FaultEvent(at_ms=Fraction(t_us, 1000), kind=f"{kind}_up", **{kind: target})


@given(st.data())
def test_ups_on_targets_that_are_up_change_nothing(data):
    """Ups appended after a random_faults schedule come after each of its
    faults of the same µs, so a target is up for them when it is up once
    all of those applied. Some fall on a µs of the schedule's own faults,
    and a train of them, one every few ms on one target, spans seconds."""
    name = data.draw(st.sampled_from(NOOP_UP_SCENARIOS), label="scenario")
    seed = data.draw(st.integers(0, 7), label="random_faults seed")
    sc, want, (times, downs) = _random_fault_run(name, seed)

    def down_at(t_us):
        return downs[bisect.bisect_right(times, t_us) - 1]

    end_us = sc.sim.duration_ms * 1000
    targets = sorted(sc.topology.nodes) + sorted(sc.topology.links)
    ups = []
    for t_us in data.draw(st.lists(
        st.sampled_from(times[1:]) | st.integers(0, end_us), max_size=6,
    ), label="µs"):
        down = down_at(t_us)
        up = [target for target in targets if target not in down]
        ups.append(_up_event(t_us, data.draw(st.sampled_from(up), label="target")))
    target, first_us, period_ms, n = data.draw(st.tuples(
        st.sampled_from(targets), st.integers(0, end_us), st.integers(7, 50),
        st.integers(1, 300),
    ), label="train: target, first µs, period ms, ups")
    last_us = min(end_us, first_us + (n - 1) * period_ms * 1000)
    for t_us in range(first_us, last_us + 1, period_ms * 1000):
        if target not in down_at(t_us):
            ups.append(_up_event(t_us, target))
    assert _outcome(dataclasses.replace(sc, faults=sc.faults + tuple(ups))) == want


def test_a_time_window_lost_in_a_blip_emits_nothing_and_the_next_one_is_delivered():
    """The time window runs on the publisher p and emits 40 ms after it
    opens. p is down from 110 to 120 ms, after the publication of 100 ms
    opened a window: that window is lost with p, and its timer at 140 ms
    finds nothing. The window of 200 ms emits seq 2, as the broker kept the
    funnel's emission counter, so it is delivered and not taken for a
    duplicate of the first window's seq 1."""
    sc = dataclasses.replace(time_window_scenario(pubs=3, delta_ms=40), faults=(
        FaultEvent(at_ms=Fraction(110), kind="node_down", node="p"),
        FaultEvent(at_ms=Fraction(120), kind="node_up", node="p"),
    ))
    w = simulate(sc)
    s = by_sub(w.report())["windowed"]
    assert (s.accepted, s.delivered, s.dup_suppressed) == (3, 2, 0)
    assert s.end_buffered == 1  # the lost window's input, never consumed
    assert [sorted(seqs) for seqs in w.seen.values()] == [[1, 2]]


@pytest.mark.parametrize("fault_at_ms", [0, 0.5, 1])
def test_a_model_snapshot_sent_at_subscribe_meets_the_faults_in_its_flight(fault_at_ms):
    """upd-s subscribes at 0 ms, and the broker b sends it the snapshot of
    version 1 over b-m-s, reaching m at 1.001 ms: m down by then loses it."""
    w = simulate(trainer_scenario(fault_at_ms=fault_at_ms))
    assert w.lost_transfers == 1
    assert by_sub(w.report())["upd-s"].applied_versions == (2, 3, 4)


def _line_world(faults=()):
    """A started world on the line a-b-c-n-x, every leg 1001 µs, and a
    send(origin, dest, label, arrive=None) that records (µs, label) in
    arrived when the transfer arrives, unless arrive is given."""
    sc = build_scenario(
        nodes=[node(n, "edge", 8, 256, "d") for n in ("a", "b", "c", "n", "x")],
        # 1 ms plus 1024 bytes at 1024 KB/ms: 1001 µs a leg
        links=[
            link(a, b, 1, 1024)
            for a, b in (("a", "b"), ("b", "c"), ("c", "n"), ("n", "x"))
        ],
        brokers={"d": "n"},
        faults=list(faults),
        sim={"duration_ms": 10, "seed": 1},
    )
    w = _World(sc, sc.sim.seed, "upstream")
    w.start()
    arrived: list[tuple[int, str]] = []

    def record(label):
        return lambda pub: arrived.append((w.now_us, label))

    def send(origin, dest, label, arrive=None):
        pub = Publication(Topic(("t", label)), origin, 1, Fraction(0), 1024)
        w._send(origin, dest, pub, arrive or record(label))

    return w, arrived, send


def test_a_transfer_that_stays_on_a_down_node_is_lost():
    """A send from a node to itself takes no leg and arrives in its own µs,
    unless its node is down after every fault up to that µs: b's, which
    ran at 1 ms, or c's at 0 ms, which is still pending when sends are made
    at start, as the run's first events."""
    w, arrived, send = _line_world([
        {"at_ms": 0, "kind": "node_down", "node": "c"},
        {"at_ms": 1, "kind": "node_down", "node": "b"},
    ])
    send("a", "a", "on a")
    send("c", "c", "on c")
    w._push(2000, simulator.PRIO_PUB, send, "b", "b", "on b")
    w._push(2000, simulator.PRIO_PUB, send, "a", "a", "on a later")
    w.run_loop()
    assert arrived == [(0, "on a"), (2000, "on a later")]
    assert w.lost_transfers == 2


def test_transfers_that_arrive_in_one_us_keep_the_order_of_hop_by_hop_forwarding():
    """Six transfers arrive at 3003 µs, each on its last leg since 2002 µs;
    every leg takes 1001 µs.

    An arrival's key is the key forwarding hop by hop gave the push of its
    last hop. A push made while handling an event at t gets (t, 0, n) from
    an event that runs before the hops at t (a fetch), (t, 1) + key + (n,)
    from an arrival of that key pushed before t, and (t, 2, n) from any
    other event, n counting pushes; a skipped hop at t turns key into
    (t, 1) + key + (0,). So the fetch's leg at 2002 µs comes first. Then
    come the legs of the three hops pushed at 1001 µs, by the order of
    their pushers there: a fetch, whose transfer is relayed at 2002 µs, a
    skipped hop, and a publication. Then the leg of the publication at
    2002 µs, and last that of the job the publication pushed for its own
    µs, although a job outranks a publication at one µs.
    """
    w, arrived, send = _line_world()

    def publication():
        send("x", "n", "publication")
        w._push(w.now_us, simulator.PRIO_JOB, send, "x", "n", "job")

    w._push(0, simulator.PRIO_PUB, send, "a", "n", "3 legs")
    w._push(1001, simulator.PRIO_FETCH, send, "c", "n", "to relay",
            lambda pub: send("n", "x", "relayed"))
    w._push(1001, simulator.PRIO_PUB, send, "b", "n", "2 legs")
    w._push(2002, simulator.PRIO_PUB, publication)
    w._push(2002, simulator.PRIO_FETCH, send, "c", "n", "fetch")
    w.run_loop()
    assert arrived == [
        (3003, label)
        for label in ("fetch", "relayed", "3 legs", "2 legs", "publication", "job")
    ]


# ---------------------------------------------------------------------------
# The integer-µs event path against the Fraction formulas it replaced.

# rates per s with denominators 1, 3, 7 and 10, e.g. 7/3
RATES = st.builds(Fraction, st.integers(1, 10**5), st.sampled_from([1, 3, 7, 10]))


@given(st.integers(0, 2**64), RATES)
def test_exp_gap_us_equals_the_fraction_formula(seed, rate):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert _exp_gap_us(ours, rate) == ref_exp_gap_us(ref, rate)
    assert ours.getstate() == ref.getstate()


class _Draw:
    """A stand-in rng whose getrandbits(53) returns u - 1: the gap's draw is u."""

    def __init__(self, u: int) -> None:
        self.u = u

    def getrandbits(self, k: int) -> int:
        assert k == 53
        return self.u - 1


def _gap_and_decimal_runs(monkeypatch, u: int, rate: Fraction) -> tuple[int, int]:
    """(_exp_gap_us for the draw u at rate, times it took the decimal path)."""
    real, runs = simulator.localcontext, []

    def counting(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, "localcontext", counting)
    got = _exp_gap_us(_Draw(u), rate)
    monkeypatch.setattr(simulator, "localcontext", real)
    return got, len(runs)


def _exact_gap(u: int, rate: Fraction) -> Decimal:
    """-ln(u / 2^53) * 10^6 / rate µs at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return -(Decimal(u) / 2**53).ln() * 10**6 * rate.denominator / rate.numerator


def _draw_near_integer_gap(rate: Fraction, above: bool) -> tuple[int, int]:
    """(u, m): a draw whose exact gap lies 10^-10 to 10^-9 µs above m µs or
    below it. m starts near 10^6 / (64 rate), where a float's ulp is under
    10^-10 µs, so the float gap is off the integer too and only the guard
    can send it to the decimal path. u starts at 2^53 exp(-m rate / 10^6)
    and steps by the gap's slope towards 5 * 10^-10 µs off m."""
    lo, hi = Decimal(10) ** -10, Decimal(10) ** -9
    target = (lo + hi) / 2 if above else -(lo + hi) / 2
    m = 10**6 * rate.denominator // (64 * rate.numerator)
    with localcontext() as ctx:
        ctx.prec = 60
        while True:
            m += 1
            p = (-Decimal(m * rate.numerator) / (10**6 * rate.denominator)).exp()
            u = int((p * 2**53).to_integral_value())
            slope = Decimal(10**6 * rate.denominator) / (rate.numerator * u)
            u -= int(((target - (_exact_gap(u, rate) - m)) / slope).to_integral_value())
            off = _exact_gap(u, rate) - m
            if lo < (off if above else -off) < hi:
                return u, m


@pytest.mark.parametrize("rate", [Fraction(20), Fraction(7, 3), Fraction(1, 10)])
@pytest.mark.parametrize("above", [False, True])
def test_exp_gap_us_next_to_an_integer_goes_the_decimal_way(monkeypatch, rate, above):
    u, m = _draw_near_integer_gap(rate, above)
    got, decimal_runs = _gap_and_decimal_runs(monkeypatch, u, rate)
    assert decimal_runs == 1
    assert got == (m + 1 if above else m) == ref_exp_gap_us(_Draw(u), rate)


def test_exp_gap_us_of_the_top_draw_is_one_us(monkeypatch):
    # u = 2^53: ln(u / 2^53) is 0, so the float lands on an integer
    got, decimal_runs = _gap_and_decimal_runs(monkeypatch, 2**53, Fraction(20))
    assert (got, decimal_runs) == (1, 1)
    assert ref_exp_gap_us(_Draw(2**53), Fraction(20)) == 1


@pytest.mark.parametrize("rate", [
    Fraction(1, 10**400),  # 10^6 / rate overflows a float
    Fraction(1, 10**12),  # the gap is past 2^52 µs: no fraction bits
    Fraction(10**400),  # 10^6 / rate underflows to 0.0, so x is 0
])
def test_exp_gap_us_beyond_float_range_goes_the_decimal_way(monkeypatch, rate):
    for u in (1, 2**52):
        got, decimal_runs = _gap_and_decimal_runs(monkeypatch, u, rate)
        assert decimal_runs == 1
        assert got == ref_exp_gap_us(_Draw(u), rate)


def test_exp_gap_us_away_from_integers_stays_in_floats(monkeypatch):
    # 10^6 ln 2 / 20 = 34657.359... µs
    got, decimal_runs = _gap_and_decimal_runs(monkeypatch, 2**52, Fraction(20))
    assert (got, decimal_runs) == (34658, 0)


@given(st.integers(0, 10**6), RATES)
def test_periodic_us_equals_the_fraction_formula(emitted, rate):
    assert _periodic_us(emitted, rate) == ref_periodic_us(emitted, rate)


# small values repeat, so histogram counts above 1 are common
@given(st.lists(st.integers(0, 10**9) | st.integers(0, 8), min_size=1, max_size=60))
def test_latency_stats_equal_the_fraction_formula(lats_us):
    want = ref_latency_stats([Fraction(us, 1000) for us in lats_us])
    assert _latency_stats(Counter(lats_us)) == want
    assert _latency_stats({}) == (None, None)


def test_latency_memory_does_not_grow_with_run_length():
    """A periodic stream delivers with the same few latencies however long
    it runs, so each subscription keeps as many histogram entries at 200
    publications as at 20, while every delivery is still counted."""
    entries = {}
    for count in (20, 200):
        sc = star_scenario(3, count=count)
        sc = dataclasses.replace(
            sc, sim=dataclasses.replace(sc.sim, duration_ms=100 * count + 1000)
        )
        w = simulate(sc)
        assert {sub: sum(h.values()) for sub, h in w.latencies.items()} == {
            sub: count for sub in ("s01", "s02", "s03")
        }
        entries[count] = {sub: len(h) for sub, h in w.latencies.items()}
    assert entries[200] == entries[20]


@given(st.lists(st.integers(0, 40), max_size=80))
def test_seqs_answer_like_a_set(seqs):
    got, want = None, set()
    for seq in seqs:
        if got is None:
            got = _Seqs(seq)
        assert got.add(seq) == (seq not in want)
        want.add(seq)
    if got is not None:
        assert sorted(got) == sorted(want)
        assert len(got) == len(want)


def test_delivery_counts_duplicates_and_keeps_an_in_order_stream_small():
    w = _World(two_publisher_scenario(extra_topic=False), 37, "upstream")
    stream = ("p1", "iso/p1/x")
    topic = Topic.parse(stream[1])

    def deliver(seq):
        pub = Publication(topic, "p1", seq, Fraction(0), 512)
        w._deliver_local("iso", "tap1", stream, pub)

    # out of order with duplicates, then a replay of everything so far
    for seq in [1, 2, 4, 3, 3, 6, 1, 5, 7, *range(1, 8)]:
        deliver(seq)
    assert (w.delivered["tap1"], w.dups["tap1"]) == (7, 9)
    seen = w.seen[("tap1", stream)]
    assert (seen.lo, seen.hi, seen.others) == (1, 7, set())
    for seq in range(8, 10_000):
        deliver(seq)
    assert (seen.hi, seen.others) == (9_999, set())
    assert (w.delivered["tap1"], w.dups["tap1"]) == (9_999, 9)


def _ack_detour_scenario(count: int = 30, more_faults: tuple[dict, ...] = ()):
    """p publishes count times to s over p-s, every 100 ms; s acks to the
    broker on c over s-c, or over s-x-c while s-c is down. s-c goes down at
    1050 ms, x-c at 2050 ms and s-c comes back at 2550 ms, followed by
    more_faults."""
    return build_scenario(
        nodes=[
            node("p", "device", 8, 256, "d"),
            node("s", "device", 8, 256, "d"),
            node("c", "edge", 16, 2048, "d"),
            node("x", "edge", 16, 2048, "d"),
        ],
        links=[link("p", "s", 1, 400), link("c", "s", 1, 400),
               link("s", "x", 2, 400), link("c", "x", 2, 400)],
        brokers={"d": "c"},
        bindings={"t/p": "p"},
        subscriptions=[{"sub_id": "tap", "subscriber": "s", "kind": "data", "filter": "t/p"}],
        workload={"t/p": {"size_bytes": 100, "rate_per_s": 10, "periodic": True, "count": count}},
        faults=[
            {"at_ms": 1050, "kind": "link_down", "link": ["c", "s"]},
            {"at_ms": 2050, "kind": "link_down", "link": ["c", "x"]},
            {"at_ms": 2550, "kind": "link_up", "link": ["c", "s"]},
            *more_faults,
        ],
        sim={"duration_ms": 4000, "seed": 1},
    )


def test_acks_take_the_route_of_the_topology_at_delivery(monkeypatch):
    """s acks to the broker on c over s-c (1 ms), over s-x-c (4 ms) while
    s-c is down, not at all while x-c is down too, and over s-c again once
    it is back up, while the data keeps arriving over p-s. An ack's delay
    from delivery names its route."""
    sc = _ack_detour_scenario()
    w = _World(sc, sc.sim.seed, "upstream")
    delivered: dict[int, int] = {}
    acked: dict[int, int] = {}
    deliver, on_ack = _World._deliver_local, Broker.on_ack

    def recording_deliver(world, domain, sub_id, stream, pub):
        delivered[pub.seq] = world.now_us
        deliver(world, domain, sub_id, stream, pub)

    def recording_on_ack(broker, sub_id, seq, stream):
        acked[seq] = w.now_us - delivered[seq]
        return on_ack(broker, sub_id, seq, stream)

    monkeypatch.setattr(_World, "_deliver_local", recording_deliver)
    monkeypatch.setattr(Broker, "on_ack", recording_on_ack)
    w.start()
    w.run_loop()
    assert sorted(delivered) == list(range(1, 31))
    for seq, t in delivered.items():
        if t < 1_050_000 or t >= 2_550_000:
            assert acked[seq] == 1000, seq
        elif t < 2_050_000:
            assert acked[seq] == 4000, seq
        else:
            assert seq not in acked, seq


def test_an_ack_is_pushed_only_if_its_route_is_still_up_when_it_is_due(monkeypatch):
    """An ack takes the route of the topology at delivery. When a fault
    falls between delivery and the ack's due µs, the delivery replays the
    faults up to that µs and pushes the ack only if its route is still up;
    an ack with no fault in its span needs no replay. x-c comes back at
    3000 ms; then s-c and node x blip, and each of the four blip edges falls
    while one ack is in flight."""
    blips = (
        {"at_ms": 3000, "kind": "link_up", "link": ["c", "x"]},
        {"at_ms": 3201.5, "kind": "link_down", "link": ["c", "s"]},
        {"at_ms": 3301.5, "kind": "link_up", "link": ["c", "s"]},
        {"at_ms": 3501.5, "kind": "node_down", "node": "x"},
        {"at_ms": 3601.5, "kind": "node_up", "node": "x"},
    )
    sc = _ack_detour_scenario(count=40, more_faults=blips)
    replayed: list[tuple[int, bool]] = []  # (due µs, route cut) per replay
    acked: list[int] = []
    cut, on_ack = _World._cut, Broker.on_ack

    def recording_cut(world, path, t_us):
        got = cut(world, path, t_us)
        if path[-1] == "c":  # an ack's route, which ends at the broker
            replayed.append((t_us, got))
        return got

    def recording_on_ack(broker, sub_id, seq, stream):
        acked.append(seq)
        return on_ack(broker, sub_id, seq, stream)

    monkeypatch.setattr(_World, "_cut", recording_cut)
    monkeypatch.setattr(Broker, "on_ack", recording_on_ack)
    w = simulate(sc)
    # seq 33's ack is due at 3202.001 ms over s-c, which fell at 3201.5; the
    # ack due at 3305.001 ms goes over s-x-c, 4 ms, and the other two over s-c
    assert replayed == [
        (3_202_001, True), (3_305_001, False), (3_502_001, False), (3_602_001, False)
    ]
    # no route while x-c was down (seqs 22-26)
    assert sorted(set(range(1, 41)) - set(acked)) == [22, 23, 24, 25, 26, 33]
    assert w.lost_acks == 6


def test_an_ack_cut_in_flight_is_counted_as_lost(monkeypatch):
    """tap1's access link c-s1 is down from 0.5 ms before to 0.5 ms after
    the µs the ack of its first delivery is due at the broker on c, 1 ms
    after the delivery: that ack is lost and counted, and nothing else is."""
    sc = two_publisher_scenario(extra_topic=False)
    delivered: list[int] = []
    deliver = _World._deliver_local

    def recording(world, domain, sub_id, stream, pub):
        delivered.append(world.now_us)
        deliver(world, domain, sub_id, stream, pub)

    monkeypatch.setattr(_World, "_deliver_local", recording)
    assert simulate(sc).lost_acks == 0
    due_us = delivered[0] + 1000
    w = simulate(dataclasses.replace(sc, faults=(
        FaultEvent(at_ms=Fraction(due_us - 500, 1000), kind="link_down", link=("c", "s1")),
        FaultEvent(at_ms=Fraction(due_us + 500, 1000), kind="link_up", link=("c", "s1")),
    )))
    assert (w.lost_acks, w.lost_transfers) == (1, 0)
    assert by_sub(w.report())["tap1"].delivered == 30


# ---------------------------------------------------------------------------
# Report plumbing.


def test_json_round_trip_preserves_the_report():
    rep = run(bundled("oran"))
    text = emit(rep, "json")
    again = report_from_json(text)
    assert again == rep
    assert emit(again, "json") == text


def test_csv_shape():
    rep = run(bundled("nwdaf"))
    lines = emit(rep, "csv").strip().splitlines()
    assert lines[0].startswith("kind,id,")
    kinds = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert kinds.count("subscription") == len(rep.subscriptions)
    assert kinds.count("link") == len(rep.links)
    assert kinds.count("node") == len(rep.nodes)
    assert kinds.count("totals") == 1


def test_emit_rejects_unknown_format():
    rep = run(bundled("nwdaf"))
    with pytest.raises(ValueError):
        emit(rep, "yaml")


def test_runs_are_reproducible():
    sc = bundled("oran")
    assert emit(run(sc, seed=7), "json") == emit(run(sc, seed=7), "json")


# ---------------------------------------------------------------------------
# Hash-seed independence on paths the bundled scenarios never run: trainer
# update rounds, filter stages, time-window fires and broker-node failure.

HASH_SEED_CASES = {
    "trainer": "trainer_scenario()",
    "time-window": "time_window_scenario(pubs=8, delta_ms=40)",
    "barrier": "barrier_scenario(count_a=10, count_b=7)",
    "prefilter": "blip_scenario(prefilter=True)",
    "g-blip": "blip_scenario(G_BLIP)",
    "broker-down": "blip_scenario(BROKER_DOWN)",
    "broker-down-g-back": "blip_scenario(BROKER_DOWN_G_BACK)",
}

_EMIT_CASE = """
import sys
from helpers import *
from infersub.metrics import emit
from infersub.simulator import run
sys.stdout.write(emit(run(eval(sys.argv[1]))))
"""


@pytest.mark.parametrize("case", sorted(HASH_SEED_CASES))
def test_reports_do_not_depend_on_the_hash_seed(case):
    tests_dir = Path(__file__).parent
    src_dir = Path(infersub.__file__).parent.parent
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(
            os.environ, PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]),
        )
        done = subprocess.run(
            [sys.executable, "-c", _EMIT_CASE, HASH_SEED_CASES[case]],
            env=env, capture_output=True, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"{")


# ---------------------------------------------------------------------------
# The benchmark's workloads, generated as CI's hash-seed step does: sha256 of
# the json report of each at seed 101, taken before transfers were planned
# once per snapshot, and the acks each loses in flight.

PERF_REPORT_DIGESTS = {
    "star-steady": ("0f6440a6102084811caf4ef5c5d3e8a79740c5bc1477b95784f21fd64c8ff011", 0),
    "star-wide": ("275e87ce0740e228ec50cc7847cb34934df29be5772d3859e9b99490cb3fb55d", 0),
    "star-churn": ("da9b8365bb9527c0c06bcdaf8a1ac8d2c5e8b996de45d362d01844cf01f66a87", 5),
}


@pytest.mark.parametrize("workload", sorted(PERF_REPORT_DIGESTS))
def test_perf_workload_reports_run_as_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    import generate

    w = simulate(loads_scenario(generate.generate(workload, 101).text()))
    digest = hashlib.sha256(emit(w.report()).encode()).hexdigest()
    assert (digest, w.lost_acks) == PERF_REPORT_DIGESTS[workload]

"""Placement: cost model, feasibility, the three algorithms, replanning."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infersub.core import (
    Barrier,
    CountWindow,
    Filter,
    Funnel,
    LinkDescriptor,
    MATCH_ALL,
    Mapping,
    NodeDescriptor,
    Pin,
    PipelineSpec,
    StageSpec,
    TimeWindow,
    TopicFilter,
    Topology,
    validate_pipeline,
)
from infersub.errors import (
    InstanceTerminatedError,
    NoFeasiblePlacementError,
    SearchSpaceTooLargeError,
)
from infersub import placement
from infersub.placement import (
    ORACLE_BOUND,
    Objective,
    Placement,
    TransferMemo,
    WorkloadEntry,
    WorkloadSpec,
    _Evaluator,
    cost,
    feasible,
    place_baseline_subscriber,
    place_oracle,
    place_upstream,
    replan,
)

from helpers import BENCH_TOPIC, assignment_nodes, line_to_core
from oracles import (
    gen_mixed_instance,
    line_chain_brute_force,
    line_chain_cost,
    ref_cost,
    ref_feasible,
    ref_place_baseline_subscriber,
    ref_place_oracle,
    ref_place_upstream,
    ref_replan,
)


def two_node_setup(sel=Fraction(1, 2)):
    topo = Topology.of(
        [
            NodeDescriptor("p", "device", Fraction(4), Fraction(256)),
            NodeDescriptor("c", "cloud", Fraction(8), Fraction(2048)),
        ],
        [LinkDescriptor("p", "c", Fraction(2), Fraction(100))],
    )
    stage = StageSpec("s1", Mapping("identity"), Fraction(6), Fraction(16), sel)
    pipeline = PipelineSpec(
        "one", (stage,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1"
    )
    workload = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(2048, Fraction(10))})
    return topo, pipeline, workload


def test_workload_matching_is_sorted_and_stable():
    entry = WorkloadEntry(100, Fraction(1))
    w = WorkloadSpec({name: entry for name in ["z/a/kpi", "b/x/kpi", "a/a/log", "a/b/kpi"]})
    for _ in range(2):
        assert w.matching(TopicFilter.parse("+/+/kpi")) == ["a/b/kpi", "b/x/kpi", "z/a/kpi"]
        assert w.matching(TopicFilter.parse("a/#")) == ["a/a/log", "a/b/kpi"]
        assert w.matching(MATCH_ALL) == sorted(w.topics)
        assert w.matching(TopicFilter.parse("q/+")) == []


def test_cost_hand_checked_single_stage():
    """2048 B at p, one stage at c, subscriber c: one 2 KB transfer."""
    topo, pipeline, workload = two_node_setup()
    o = Objective(Fraction(1), Fraction(1, 10))
    rep = cost(Placement({"s1": "c"}), pipeline, topo, workload, o, "p", "c")
    transfer = Fraction(2) + Fraction(2048, 1024) / Fraction(100)
    compute = Fraction(6) / Fraction(8)
    assert rep.latency_ms == transfer + compute
    assert rep.bytes_kb == Fraction(2048, 1024)
    assert rep.objective_value == o.value(rep.latency_ms, rep.bytes_kb)
    assert rep.feasible


def test_cost_counts_every_hop_and_the_tail():
    """Stage at p: the (smaller) output crosses to the subscriber instead."""
    topo, pipeline, workload = two_node_setup()
    o = Objective()
    rep = cost(Placement({"s1": "p"}), pipeline, topo, workload, o, "p", "c")
    compute = Fraction(6) / Fraction(4)
    tail = Fraction(2) + Fraction(1024, 1024) / Fraction(100)
    assert rep.latency_ms == compute + tail
    assert rep.bytes_kb == Fraction(1)


def test_cost_is_none_without_a_route():
    topo = Topology.of(
        [
            NodeDescriptor("p", "device", 4, 256),
            NodeDescriptor("x", "edge", 4, 256),
        ],
        [],
    )
    stage = StageSpec("s1", Mapping("identity"), 1, 1, 1)
    pipeline = PipelineSpec(
        "one", (stage,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1"
    )
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(100, 1)})
    rep = cost(Placement({"s1": "x"}), pipeline, topo, w, Objective(), "p", "p")
    assert rep.latency_ms is None and rep.bytes_kb is None
    assert not rep.feasible


def test_feasible_flags_memory_cpu_pins_accelerator():
    topo = Topology.of(
        [
            NodeDescriptor("p", "device", Fraction(1, 10), Fraction(10)),
            NodeDescriptor("c", "cloud", Fraction(8), Fraction(2048), True),
        ],
        [LinkDescriptor("p", "c", 1, 100)],
    )
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(100, Fraction(50))})

    heavy = StageSpec("s1", Mapping("identity"), Fraction(10), Fraction(64), 1)
    p1 = PipelineSpec("p1", (heavy,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1")
    rules = {v.rule for v in feasible(Placement({"s1": "p"}), p1, topo, w, "p", "c")}
    assert "MemoryExceeded" in rules or "CpuExceeded" in rules

    accel = StageSpec(
        "s1", Mapping("identity"), 0, 0, 1, needs_accelerator=True
    )
    p2 = PipelineSpec("p2", (accel,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1")
    rules = {v.rule for v in feasible(Placement({"s1": "p"}), p2, topo, w, "p", "c")}
    assert "AcceleratorMissing" in rules
    assert not feasible(Placement({"s1": "c"}), p2, topo, w, "p", "c")

    pinned = StageSpec("s1", Mapping("identity"), 0, 0, 1, pin=Pin.at_node("c"))
    p3 = PipelineSpec("p3", (pinned,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1")
    rules = {v.rule for v in feasible(Placement({"s1": "p"}), p3, topo, w, "p", "c")}
    assert "PinViolation" in rules


def test_objective_weight_validation():
    with pytest.raises(ValueError):
        Objective(Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        Objective(Fraction(0), Fraction(0))
    assert Objective().beta == Fraction(1, 10)


# ---------------------------------------------------------------------------
# Randomized audits against the independent evaluator


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_cost_matches_line_evaluator(seed):
    rng = random.Random(seed)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    n, k = len(inst.node_ids), len(inst.stages)
    combo = tuple(rng.randrange(n) for _ in range(k))
    rep = cost(Placement(assignment_nodes(inst, combo)), p, t, w, o, pub, sub)
    lat, kb = line_chain_cost(inst, combo)
    assert rep.latency_ms == lat
    assert rep.bytes_kb == kb
    assert rep.objective_value == o.value(lat, kb)


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_oracle_never_beaten_by_random_assignments(seed):
    rng = random.Random(seed)
    inst = gen_mixed_instance(rng)
    if line_chain_brute_force(inst) is None:
        return
    p, t, w, o, pub, sub = line_to_core(inst)
    orc = place_oracle(p, t, w, o, pub, sub)
    best = cost(orc, p, t, w, o, pub, sub)
    assert best.feasible
    n, k = len(inst.node_ids), len(inst.stages)
    for _ in range(6):
        combo = tuple(rng.randrange(n) for _ in range(k))
        rep = cost(Placement(assignment_nodes(inst, combo)), p, t, w, o, pub, sub)
        if rep.feasible:
            assert rep.objective_value >= best.objective_value


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_upstream_respects_pins_and_reports_feasible(seed):
    rng = random.Random(seed)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    try:
        pl = place_upstream(p, t, w, o, pub, sub)
    except NoFeasiblePlacementError:
        return  # the heuristic may honestly give up; it must never lie
    assert not feasible(pl, p, t, w, pub, sub)
    for i, (_, _, _, pin) in enumerate(inst.stages):
        if pin is not None:
            assert pl.assignment[f"s{i + 1}"] == inst.node_ids[pin]


def test_baseline_puts_unpinned_stages_at_subscriber():
    rng = random.Random(4)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    pl = place_baseline_subscriber(p, t, w, pub, sub)
    for i, (_, _, _, pin) in enumerate(inst.stages):
        want = inst.node_ids[pin] if pin is not None else sub
        assert pl.assignment[f"s{i + 1}"] == want


def test_cost_invariant_under_node_relabeling():
    rng = random.Random(99)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    pl = place_oracle(p, t, w, o, pub, sub)
    base = cost(pl, p, t, w, o, pub, sub)

    ren = {nid: f"zz-{nid}" for nid in t.nodes}
    topo2 = Topology.of(
        [
            NodeDescriptor(ren[n.node_id], n.tier, n.cpu_capacity, n.mem_mb,
                           n.has_accelerator, n.domain_id)
            for n in t.nodes.values()
        ],
        [
            LinkDescriptor(ren[l.a], ren[l.b], l.latency_ms, l.bandwidth_kb_per_ms)
            for l in t.links.values()
        ],
    )
    pl2 = Placement({sid: ren[n] for sid, n in pl.assignment.items()})
    rep2 = cost(pl2, p, topo2, w, o, ren[pub], ren[sub])
    assert rep2.objective_value == base.objective_value
    assert rep2.latency_ms == base.latency_ms
    assert rep2.bytes_kb == base.bytes_kb


# ---------------------------------------------------------------------------
# Replanning


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_replan_moves_only_stages_on_failed_nodes(seed):
    rng = random.Random(seed)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    try:
        pl = place_upstream(p, t, w, o, pub, sub)
    except NoFeasiblePlacementError:
        return
    used = sorted(set(pl.assignment.values()) - {pub, sub})
    if not used:
        return
    failed = used[rng.randrange(len(used))]
    pinned_there = any(
        pin is not None and inst.node_ids[pin] == failed
        for _, _, _, pin in inst.stages
    )
    down = t.with_node_state(failed, up=False)
    if pinned_there:
        with pytest.raises(NoFeasiblePlacementError):
            replan(pl, {failed}, p, down, w, o, pub, sub)
        return
    try:
        moved = replan(pl, {failed}, p, down, w, o, pub, sub)
    except NoFeasiblePlacementError:
        return  # nowhere to go is a legal outcome
    for sid, node in pl.assignment.items():
        if node != failed:
            assert moved.assignment[sid] == node
        else:
            assert moved.assignment[sid] != failed


def test_replan_terminates_when_an_endpoint_failed():
    rng = random.Random(12)
    inst = gen_mixed_instance(rng)
    p, t, w, o, pub, sub = line_to_core(inst)
    pl = place_baseline_subscriber(p, t, w, pub, sub)
    with pytest.raises(InstanceTerminatedError):
        replan(pl, {sub}, p, t, w, o, pub, sub)


def test_oracle_refuses_oversized_search_spaces():
    n = 12
    ids = [f"n{i}" for i in range(n)]
    nodes = [NodeDescriptor(i, "edge", 4, 10**6) for i in ids]
    links = [LinkDescriptor(ids[i], ids[i + 1], 1, 100) for i in range(n - 1)]
    topo = Topology.of(nodes, links)
    stages = tuple(
        StageSpec(f"s{i}", Mapping("identity"), 1, 1, 1) for i in range(1, 8)
    )
    p = PipelineSpec(
        "big",
        stages,
        tuple((f"s{i}", f"s{i + 1}") for i in range(1, 7)),
        {"s1": MATCH_ALL},
        "s7",
    )
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(100, 1)})
    with pytest.raises(SearchSpaceTooLargeError):
        place_oracle(p, topo, w, Objective(), ids[0], ids[-1])


# ---------------------------------------------------------------------------
# Against the pre-evaluator placement code kept in oracles


def gen_placement_case(rng: random.Random, fractional: bool = False):
    """A random placement problem: a chain behind an optional funnel join
    (barrier, count or time window) and prefilter gate, every pin kind,
    accelerator needs, mem/cpu budgets that sometimes bind, and down,
    cut-off or unreachable nodes. Returns (p, t, w, o, publisher, subscriber).

    With fractional, latencies, bandwidths, cpu capacities, compute costs and
    node and stage memory are drawn over the co-prime denominators 3, 7 and
    10 (or 1), so both the numerators and the denominators of those inputs
    reach the tick unit and the mem and cpu scales; without it, every draw is
    the same as before memory was drawn fractional."""

    def ratio(n: int) -> Fraction:
        return Fraction(n, rng.choice([1, 3, 7, 10])) if fractional else Fraction(n)

    n = rng.randint(3, 6)
    ids = [f"n{i}" for i in range(n)]
    nodes = [
        NodeDescriptor(
            nid, "edge", ratio(rng.randint(1, 8)),
            ratio(rng.choice([24, 64, 4096, 4096])), rng.random() < 0.4,
        )
        for nid in ids
    ]
    ends = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    ends |= {tuple(sorted(rng.sample(ids, 2))) for _ in range(rng.randint(0, 3))}
    if rng.random() < 0.1:
        ends.discard(sorted(ends)[0])  # may cut the topology in two
    links = [
        LinkDescriptor(a, b, ratio(rng.randint(0, 5)), ratio(rng.randint(1, 200)))
        for a, b in sorted(ends)
    ]
    t = Topology.of(nodes, links)
    if rng.random() < 0.15:
        t = t.with_node_state(rng.choice(ids), up=False)
    if rng.random() < 0.1:
        t = t.with_link_state(*sorted(ends)[0], up=False)
    subscriber = rng.choice(ids)

    def pin() -> Pin:
        roll = rng.random()
        if roll < 0.1:
            return Pin.at_publisher()
        if roll < 0.2:
            return Pin.at_subscriber()
        if roll < 0.3:
            return Pin.at_node(rng.choice(ids))
        return Pin.unpinned()

    def stage(sid: str, kind) -> StageSpec:
        return StageSpec(
            sid, kind, ratio(rng.randint(0, 20)), ratio(rng.randint(0, 40)),
            Fraction(rng.randint(2, 12), 8), rng.random() < 0.1, pin(),
        )

    k = rng.randint(1, 3)
    chain = [stage(f"s{i}", Mapping("identity")) for i in range(1, k + 1)]
    edges = [(a.stage_id, b.stage_id) for a, b in zip(chain, chain[1:])]
    head = chain[0].stage_id
    front: list[StageSpec] = []
    if rng.random() < 0.3:
        front.append(stage("gate", Filter("above")))
        edges.append(("gate", head))
        head = "gate"
    topics: dict[str, str] = {}
    if rng.random() < 0.5:
        relays = [f"in{i}" for i in range(rng.randint(2, 3))]
        trigger = rng.choice([
            Barrier(tuple(relays)), CountWindow(rng.randint(1, 4)),
            TimeWindow(rng.randint(1, 100)),
        ])
        front.insert(0, stage("join", Funnel("concat", trigger)))
        edges.append(("join", head))
        for rid in relays:
            front.insert(0, stage(rid, Mapping("identity")))
            edges.append((rid, "join"))
            topics[rid] = f"d/{rid}/x"
        pubs = {rid: rng.choice(ids) for rid in relays}
        publisher = pubs if rng.random() < 0.7 else rng.choice(ids)
    else:
        topics[head] = "d/in/x"
        publisher = rng.choice([rng.choice(ids), {head: rng.choice(ids)}])
    p = PipelineSpec(
        "case", tuple(front + chain), tuple(sorted(edges)),
        {sid: TopicFilter.parse(topic) for sid, topic in topics.items()},
        chain[-1].stage_id,
    )
    w = WorkloadSpec({
        topic: WorkloadEntry(rng.randint(1, 8192), Fraction(rng.randint(1, 100)))
        for topic in topics.values()
        if rng.random() < 0.9  # else WorkloadMissing
    })
    alpha = Fraction(rng.randint(0, 10), 10) or Fraction(1)
    o = Objective(alpha, Fraction(rng.randint(0, 10), 10))
    return p, t, w, o, publisher, subscriber


def outcome(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    return got.assignment if isinstance(got, Placement) else got


def check_against_reference(rng, p, t, w, o, pub, sub, memo=None):
    """Every public placement function on one case equals the pre-evaluator
    reference, error types included; memo, when given, is passed to each
    function that takes one."""
    ids = sorted(t.nodes)

    for _ in range(3):
        assignment = {s.stage_id: rng.choice(ids) for s in p.stages}
        roll = rng.random()
        if roll < 0.1:
            del assignment[rng.choice(sorted(assignment))]
        elif roll < 0.2:
            assignment[rng.choice(sorted(assignment))] = "ghost"
        pl = Placement(assignment)
        for context in ((), (pub,), (None, sub), (pub, sub)):
            assert outcome(feasible, pl, p, t, w, *context) == outcome(
                ref_feasible, pl, p, t, w, *context
            )
        assert outcome(cost, pl, p, t, w, o, pub, sub, memo) == outcome(
            ref_cost, pl, p, t, w, o, pub, sub
        )

    upstream = outcome(place_upstream, p, t, w, o, pub, sub, memo)
    assert upstream == outcome(ref_place_upstream, p, t, w, o, pub, sub)
    baseline = outcome(place_baseline_subscriber, p, t, w, pub, sub)
    assert baseline == outcome(ref_place_baseline_subscriber, p, t, w, pub, sub)

    starts = [upstream, {s.stage_id: rng.choice(ids) for s in p.stages}]
    unpinned = sum(not s.pin.is_pinned for s in p.stages)
    space = sum(t.is_node_up(n) for n in ids) ** unpinned
    if space <= 64 or space > ORACLE_BOUND:
        oracle = outcome(place_oracle, p, t, w, o, pub, sub, memo)
        assert oracle == outcome(ref_place_oracle, p, t, w, o, pub, sub)
        starts.append(oracle)

    endpoints = {sub, pub} if isinstance(pub, str) else {sub, *pub.values()}
    for start in starts:
        if not isinstance(start, dict):
            continue
        hosts = sorted(set(start.values()) - endpoints)
        failed = {rng.choice(hosts if hosts and rng.random() < 0.8 else ids)}
        # the caller's topology need not show the failed node down yet
        down = t if rng.random() < 0.2 else t.with_node_state(*failed, up=False)
        pl = Placement(start)
        assert outcome(replan, pl, failed, p, down, w, o, pub, sub) == outcome(
            ref_replan, pl, failed, p, down, w, o, pub, sub
        )


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_placement_matches_the_pre_evaluator_reference(seed):
    rng = random.Random(seed)
    check_against_reference(rng, *gen_placement_case(rng))


@pytest.mark.parametrize("alpha, beta", [
    pytest.param(Fraction(3, 7), Fraction(10, 3), id="both-weights"),
    pytest.param(Fraction(0), Fraction(2, 9), id="alpha-zero"),
    pytest.param(Fraction(4, 11), Fraction(0), id="beta-zero"),
])
@given(seed=st.integers(0, 10**9))
def test_placement_is_exact_on_fractional_inputs(alpha, beta, seed):
    """Co-prime latency, bandwidth, cpu and compute-cost denominators, each
    objective weight zero in turn, and one memo shared by every call on the
    case's topology, as a compile shares it. The memo is first filled by the
    same pipeline with every compute cost zero, whose ticks need no factor
    beyond the memo's unit, as a compile's other pipelines would."""
    rng = random.Random(seed)
    p, t, w, _, pub, sub = gen_placement_case(rng, fractional=True)
    o = Objective(alpha, beta)
    memo = TransferMemo(t)
    free = replace(p, stages=tuple(replace(s, compute_cost=0) for s in p.stages))
    outcome(place_upstream, free, t, w, o, pub, sub, memo)
    check_against_reference(rng, p, t, w, o, pub, sub, memo)


def _filled_node_case(budget: Fraction, needs: list[tuple[Fraction, Fraction]]):
    """A chain of one stage per (memory, compute cost) in needs, on a one-node
    topology whose memory and cpu budgets are both budget. The node is the
    publisher and the subscriber too. At 1000 publications a second a
    stage's cpu load equals its compute cost."""
    topo = Topology.of([NodeDescriptor("n", "edge", budget, budget)], [])
    stages = tuple(
        StageSpec(f"s{i}", Mapping("identity"), cost, mem, 1)
        for i, (mem, cost) in enumerate(needs, 1)
    )
    edges = tuple((a.stage_id, b.stage_id) for a, b in zip(stages, stages[1:]))
    p = PipelineSpec(
        "fill", stages, edges, {"s1": TopicFilter.parse(BENCH_TOPIC)},
        stages[-1].stage_id,
    )
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(64, 1000)})
    return p, topo, w


@pytest.mark.parametrize("small_first", [False, True], ids=["2/3-first", "1/7-first"])
@pytest.mark.parametrize("budget", [
    pytest.param(Fraction(17, 21), id="budget-on-the-scale"),
    pytest.param(Fraction(5, 6), id="budget-between-scale-steps"),
])
def test_a_node_filled_to_a_fractional_budget_admits_and_one_21st_more_does_not(
    budget, small_first
):
    """Budgets are compared as ints in the evaluator's mem and cpu scales.
    Stages needing 2/3 and 1/7 of memory and of cpu fill 17/21 of each, which
    both budgets admit; one more 1/21 on the 1/7 stage fits neither, even
    where the budget times the scale is not whole (5/6 is 17.5/21). Each
    stage comes first in turn, so every stage's denominator counts."""
    big, small, more, no = Fraction(2, 3), Fraction(1, 7), Fraction(1, 21), Fraction(0)

    def case(extra_mem: Fraction, extra_cost: Fraction):
        needs = [(big, big), (small + extra_mem, small + extra_cost)]
        return _filled_node_case(budget, needs[::-1] if small_first else needs)

    pl, o = Placement({"s1": "n", "s2": "n"}), Objective()
    p, t, w = case(no, no)
    assert feasible(pl, p, t, w, "n", "n") == []
    for place in (place_oracle, place_upstream):
        assert place(p, t, w, o, "n", "n").assignment == pl.assignment

    for extra_mem, extra_cost, rule in [
        (more, no, "MemoryExceeded"), (no, more, "CpuExceeded"),
    ]:
        p, t, w = case(extra_mem, extra_cost)
        assert [(v.rule, v.detail) for v in feasible(pl, p, t, w, "n", "n")] == [
            (rule, f"6/7 > {budget}")
        ]
        for place in (place_oracle, place_upstream):
            with pytest.raises(NoFeasiblePlacementError):
                place(p, t, w, o, "n", "n")


def test_a_memo_of_another_snapshot_is_not_read():
    """Terms memoized on one snapshot would misprice a route that a link
    fault changed; a search given that memo on the new snapshot makes its own."""
    topo = Topology.of(
        [NodeDescriptor(n, "edge", 4, 256) for n in ("m", "p", "x")],
        [
            LinkDescriptor("p", "x", 1, 100),
            LinkDescriptor("m", "p", 2, 100),
            LinkDescriptor("m", "x", 3, 100),
        ],
    )
    stage = StageSpec("s1", Mapping("identity"), 1, 1, 1)
    pipeline = PipelineSpec(
        "one", (stage,), (), {"s1": TopicFilter.parse(BENCH_TOPIC)}, "s1"
    )
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(1024, 1)})
    pl, o = Placement({"s1": "x"}), Objective()
    memo = TransferMemo(topo)
    compute = Fraction(1, 4)
    direct = cost(pl, pipeline, topo, w, o, "p", "x", memo)
    assert direct.latency_ms == 1 + Fraction(1, 100) + compute
    down = topo.with_link_state("p", "x", up=False)
    detour = cost(pl, pipeline, down, w, o, "p", "x", memo)
    assert detour.latency_ms == 2 + 3 + 2 * Fraction(1, 100) + compute


@given(seed=st.integers(0, 10**9))
def test_one_memo_shared_by_two_subscriptions_of_one_model_changes_nothing(seed):
    """Two pipelines over the very same stage objects, as two subscriptions
    of one model are, bound to topics of different sizes and rates. With one
    memo they share what their stages and bindings derive, so the memo must
    tell their bindings apart: each gets the workload, violations, compute
    terms, budgets and cost of a fresh evaluator, in either order and again
    on a memo hit, and a pipeline with the same stages and bindings gets the
    very same shape. Each search's score, read back through the memo, is
    the placement's fresh cost. Compute costs over 11 on power-of-two
    bandwidths need a finer unit than the memo's, so their shape keeps its
    own transfer terms, which both of its pipelines' evaluators read."""
    rng = random.Random(seed)
    p1, t, w1, o, pub, sub = gen_placement_case(rng, fractional=rng.random() < 0.5)
    renamed = {
        sid: TopicFilter.parse(str(f).replace("/x", "/y"))
        for sid, f in p1.source_bindings.items()
    }
    p2 = replace(p1, pipeline_id="other", source_bindings=renamed)
    assert all(a is b for a, b in zip(p1.stages, p2.stages))
    topics = dict(w1.topics)
    for f in renamed.values():
        if rng.random() < 0.9:  # else WorkloadMissing on this binding alone
            topics[str(f)] = WorkloadEntry(
                rng.randint(1, 8192), Fraction(rng.randint(1, 100), rng.randint(1, 3))
            )
    w = WorkloadSpec(topics)
    ids = sorted(t.nodes)
    memo = TransferMemo(t)
    for p in (p1, p2, p1) if rng.random() < 0.5 else (p2, p1, p2):
        shared = _Evaluator(p, t, w, pub, sub, memo)
        fresh = _Evaluator(p, t, w, pub, sub)
        again = _Evaluator(replace(p, pipeline_id="again"), t, w, pub, sub, memo)
        assert again.shape is shared.shape
        assert shared.shape.workload == fresh.shape.workload
        assert shared.shape.needs == fresh.shape.needs
        assert shared.shape.unit == fresh.shape.unit
        assert shared.weights(o) == fresh.weights(o)
        for _ in range(3):
            sid, node = rng.choice(p.stages).stage_id, rng.choice(ids)
            assert shared.shape.compute(sid, node) == fresh.shape.compute(sid, node)
            assert shared.shape.budget(node) == fresh.shape.budget(node)
            assigned = {s.stage_id: rng.choice(ids) for s in p.stages}
            assert shared.violations(assigned) == fresh.violations(assigned)
            assert shared.cost(assigned, o) == fresh.cost(assigned, o)
        searches = [place_upstream]
        unpinned = sum(not s.pin.is_pinned for s in p.stages)
        if len(ids) ** unpinned <= 64:
            searches.append(place_oracle)
        for place in searches:
            try:
                pl = place(p, t, w, o, pub, sub, memo)
            except NoFeasiblePlacementError:
                continue
            assert memo.report(pl, o) == cost(pl, p, t, w, o, pub, sub)
            assert memo.report(Placement(dict(pl.assignment)), o) is None
    assert len(memo._shapes) == 2

    pow2 = Topology.of(t.nodes.values(), [
        replace(link, bandwidth_kb_per_ms=2 ** rng.randint(0, 7))
        for link in t.links.values()
    ])
    slow = replace(p1, stages=tuple(
        replace(s, compute_cost=Fraction(rng.randint(1, 10), 11)) for s in p1.stages
    ))
    memo = TransferMemo(pow2)
    pair = [
        _Evaluator(q, pow2, w, pub, sub, memo)
        for q in (slow, replace(slow, pipeline_id="again"))
    ]
    fresh = _Evaluator(slow, pow2, w, pub, sub)
    assert pair[0].shape.unit > memo.unit
    assert pair[0].shape.terms is pair[1].shape.terms is memo._units[pair[1].shape.unit][0]
    for _ in range(3):
        assigned = {s.stage_id: rng.choice(ids) for s in slow.stages}
        for ev in pair:
            assert ev.cost(assigned, o) == fresh.cost(assigned, o)


# ---------------------------------------------------------------------------
# The oracle's branch-and-bound against the exhaustive reference


def star_oracle_case(rng: random.Random, k: int, n: int, tight: bool):
    """A k-stage chain on a hub "c" with n - 1 leaves, published at a leaf.

    Uniform cases (tight=False) give every link, node and stage the same
    figures and keep sizes unchanged, so every assignment that moves forward
    along the publisher->subscriber route ties on objective and only the
    upstream key decides. Tight cases draw node memory and cpu below a few
    stages' needs, so budgets bind and many branches are infeasible, and
    draw selectivities other than 1, so one route carries several sizes.
    Returns (p, t, w, o, publisher, subscriber)."""
    leaves = [f"l{i}" for i in range(1, n)]
    if tight:
        nodes = [
            NodeDescriptor(nid, "edge", Fraction(rng.randint(1, 3)),
                           Fraction(rng.choice([16, 32, 48, 64])))
            for nid in ["c", *leaves]
        ]
        links = [
            LinkDescriptor("c", leaf, Fraction(rng.randint(1, 6)),
                           Fraction(rng.randint(10, 100)))
            for leaf in leaves
        ]
    else:
        nodes = [
            NodeDescriptor(nid, "edge", Fraction(4), Fraction(4096))
            for nid in ["c", *leaves]
        ]
        links = [LinkDescriptor("c", leaf, Fraction(2), Fraction(50)) for leaf in leaves]
    stages = tuple(
        StageSpec(
            f"s{i}", Mapping("identity"),
            Fraction(rng.randint(1, 9)) if tight else Fraction(3),
            Fraction(rng.choice([8, 16, 24])) if tight else Fraction(16),
            rng.choice([Fraction(1), Fraction(1, 2), Fraction(3, 2)]) if tight
            else Fraction(1),
        )
        for i in range(1, k + 1)
    )
    p = PipelineSpec(
        "star", stages, tuple((f"s{i}", f"s{i + 1}") for i in range(1, k)),
        {"s1": TopicFilter.parse(BENCH_TOPIC)}, f"s{k}",
    )
    rate = Fraction(rng.choice([100, 200, 400])) if tight else Fraction(10)
    w = WorkloadSpec({BENCH_TOPIC: WorkloadEntry(rng.choice([512, 2048, 8192]), rate)})
    publisher = rng.choice(leaves)
    subscriber = rng.choice(["c", *(x for x in leaves if x != publisher)])
    return p, Topology.of(nodes, links), w, Objective(), publisher, subscriber


@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_reference_on_tie_heavy_uniform_stars(seed):
    rng = random.Random(seed)
    k, n = (3, rng.randint(5, 7)) if seed < 6 else (4, rng.randint(5, 6))
    p, t, w, o, pub, sub = star_oracle_case(rng, k, n, tight=False)
    got = place_oracle(p, t, w, o, pub, sub)
    assert got.assignment == ref_place_oracle(p, t, w, o, pub, sub).assignment


def tight_star_case(seed: int):
    """Tight star number seed of 12: k=3 on 5-7 nodes, k=4 from seed 9 on."""
    rng = random.Random(1000 + seed)
    k, n = (3, rng.randint(5, 7)) if seed < 9 else (4, rng.randint(5, 6))
    return star_oracle_case(rng, k, n, tight=True)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_matches_reference_under_binding_budgets(seed):
    p, t, w, o, pub, sub = tight_star_case(seed)
    assert outcome(place_oracle, p, t, w, o, pub, sub) == outcome(
        ref_place_oracle, p, t, w, o, pub, sub
    )


def test_binding_budgets_change_the_oracle_outcome():
    """The tight stars really bind: most budget-free optima break a memory
    or cpu budget, and both kinds occur."""
    bound = 0
    rules: set[str] = set()
    for seed in range(12):
        p, t, w, o, pub, sub = tight_star_case(seed)
        roomy = Topology.of(
            [replace(x, cpu_capacity=Fraction(10**6), mem_mb=Fraction(10**6))
             for x in t.nodes.values()],
            t.links.values(),
        )
        broken = feasible(place_oracle(p, roomy, w, o, pub, sub), p, t, w, pub, sub)
        bound += bool(broken)
        rules.update(v.rule for v in broken)
    assert bound >= 8
    assert rules == {"CpuExceeded", "MemoryExceeded"}


def test_oracle_ignores_finish_times_of_branches_off_the_sink():
    """An unvalidated pipeline whose slow branch never reaches the sink: that
    branch moves bytes but adds no latency, so it must not tighten the bound."""
    for seed in range(6):
        rng = random.Random(2000 + seed)
        p, t, w, o, pub, sub = star_oracle_case(rng, 3, 5, tight=False)
        slow = StageSpec("slow", Mapping("identity"), Fraction(400), Fraction(16),
                         Fraction(1))
        dangling = PipelineSpec(
            "dangling", p.stages + (slow,), p.edges + (("s1", "slow"),),
            p.source_bindings, p.sink,
        )
        assert validate_pipeline(dangling)
        got = place_oracle(dangling, t, w, o, pub, sub)
        assert got.assignment == ref_place_oracle(dangling, t, w, o, pub, sub).assignment


def test_oracle_without_workload_finds_nothing():
    rng = random.Random(7)
    p, t, _, o, pub, sub = star_oracle_case(rng, 3, 5, tight=False)
    w = WorkloadSpec({"other/topic": WorkloadEntry(100, Fraction(1))})
    with pytest.raises(NoFeasiblePlacementError):
        place_oracle(p, t, w, o, pub, sub)
    with pytest.raises(NoFeasiblePlacementError):
        ref_place_oracle(p, t, w, o, pub, sub)


# ---------------------------------------------------------------------------
# The upstream search's per-candidate checks against the full-check reference


def failure(fn, *args):
    """fn's assignment, or the type and message of the exception it raised."""
    try:
        return fn(*args).assignment
    except NoFeasiblePlacementError as exc:
        return type(exc), str(exc)


def line_of(p_node: NodeDescriptor, stages: tuple[StageSpec, ...]):
    """Publisher p - m - subscriber s, 2048 B at 100/s into a chain of
    stages; the objective counts bytes only, so a stage that shrinks its
    input (see shrinker) is cheapest at p, then m, then s."""
    t = Topology.of(
        [p_node,
         NodeDescriptor("m", "edge", Fraction(8), Fraction(4096), True),
         NodeDescriptor("s", "edge", Fraction(8), Fraction(4096), True)],
        [LinkDescriptor("p", "m", Fraction(1), Fraction(100)),
         LinkDescriptor("m", "s", Fraction(1), Fraction(100))],
    )
    edges = tuple((a.stage_id, b.stage_id) for a, b in zip(stages, stages[1:]))
    head, sink = stages[0].stage_id, stages[-1].stage_id
    p = PipelineSpec("line", stages, edges, {head: TopicFilter.parse("d/p/x")}, sink)
    w = WorkloadSpec({"d/p/x": WorkloadEntry(2048, Fraction(100))})
    return p, t, w, Objective(Fraction(0), Fraction(1))


def shrinker(sid: str, cost: int = 0, mem: int = 0, accelerator: bool = False):
    """A stage that shrinks its input 8x."""
    return StageSpec(sid, Mapping("identity"), Fraction(cost), Fraction(mem),
                     Fraction(1, 8), accelerator)


@pytest.mark.parametrize("budget", ["memory", "cpu", "accelerator"])
def test_no_move_lands_on_a_node_without_room_or_accelerator(budget):
    """p is the cheapest node for s1 but lacks memory, cpu or an accelerator
    for it, so the search keeps s1 on m."""
    node = {
        "memory": NodeDescriptor("p", "device", Fraction(8), Fraction(64)),
        "cpu": NodeDescriptor("p", "device", Fraction(1), Fraction(4096)),
        "accelerator": NodeDescriptor("p", "device", Fraction(8), Fraction(4096)),
    }[budget]
    stage = {
        "memory": shrinker("s1", mem=100),
        "cpu": shrinker("s1", cost=20),  # 20 * 100/s / 1000 = load 2 > 1
        "accelerator": shrinker("s1", accelerator=True),
    }[budget]
    p, t, w, o = line_of(node, (stage,))
    got = place_upstream(p, t, w, o, "p", "s")
    assert got.assignment == {"s1": "m"}
    assert got.assignment == ref_place_upstream(p, t, w, o, "p", "s").assignment
    assert not feasible(got, p, t, w, "p", "s")
    roomy = Topology.of(
        [NodeDescriptor("p", "device", Fraction(8), Fraction(4096), True),
         t.node("m"), t.node("s")],
        t.links.values(),
    )
    assert place_upstream(p, roomy, w, o, "p", "s").assignment == {"s1": "p"}


def test_a_move_sees_the_room_an_earlier_move_took():
    """Stages that grow 4x are cheapest at the subscriber s, which has room
    for one. The greedy phase puts both on p; the search then moves s2 to s
    and must see s full when it tries s1 there, so s1 goes to m."""
    grower = [
        StageSpec(sid, Mapping("identity"), 0, Fraction(60), Fraction(4))
        for sid in ("s1", "s2")
    ]
    node = NodeDescriptor("p", "device", Fraction(8), Fraction(4096))
    p, t, w, o = line_of(node, tuple(grower))
    t = Topology.of(
        [t.node("p"), t.node("m"), replace(t.node("s"), mem_mb=Fraction(100))],
        t.links.values(),
    )
    got = place_upstream(p, t, w, o, "p", "s")
    assert got.assignment == {"s1": "m", "s2": "s"}
    assert got.assignment == ref_place_upstream(p, t, w, o, "p", "s").assignment


def test_replan_fails_every_candidate_when_fixed_stages_break_a_budget():
    """A subscriber-side placement (as the baseline makes) puts both stages
    on m, over its memory. When s2's node fails, s1 stays on m, still over
    budget, so no node can take s2: the search reports the stage, as the
    full budget check does, not the broken node."""
    node = NodeDescriptor("p", "device", Fraction(8), Fraction(4096))
    p, t, w, o = line_of(node, (shrinker("s1", mem=300), shrinker("s2", mem=10)))
    t = Topology.of(
        [t.node("p"), replace(t.node("m"), mem_mb=Fraction(200)), t.node("s"),
         NodeDescriptor("x", "edge", Fraction(8), Fraction(4096))],
        [*t.links.values(), LinkDescriptor("m", "x", Fraction(1), Fraction(100))],
    )
    start = Placement({"s1": "m", "s2": "x"})
    assert [v.rule for v in feasible(start, p, t, w, "p", "s")] == ["MemoryExceeded"]
    got = failure(replan, start, {"x"}, p, t, w, o, "p", "s")
    assert got == (NoFeasiblePlacementError, "line: stage s2")
    assert got == failure(ref_replan, start, {"x"}, p, t, w, o, "p", "s")


def test_moving_a_join_rescores_every_route_that_touches_it():
    """Two publishers feed a barrier join, then a stage that grows its input
    4x and so moves toward the subscriber s. The direct link from b to the
    hub h is down, so b's relay detours through a. Moving the join changes
    both incoming routes and the outgoing one; counting bytes only, the join's
    moves tie with staying on a once both relays' transfers are counted.
    (No move can lose a route: every candidate shares the publishers' and
    s's component.)"""
    nodes = [NodeDescriptor(n, "edge", Fraction(8), Fraction(4096))
             for n in ("a", "b", "h", "s")]
    links = [LinkDescriptor("a", "b", Fraction(1), Fraction(10)),
             LinkDescriptor("a", "h", Fraction(1), Fraction(50)),
             LinkDescriptor("b", "h", Fraction(1), Fraction(500)),
             LinkDescriptor("h", "s", Fraction(3), Fraction(20))]
    t = Topology.of(nodes, links).with_link_state("b", "h", up=False)
    relays = [StageSpec(r, Mapping("identity"), 0, 0, 1, pin=Pin.at_publisher())
              for r in ("ra", "rb")]
    join = StageSpec("join", Funnel("concat", Barrier(("ra", "rb"))), 0, 0, 1)
    model = StageSpec("s1", Mapping("identity"), Fraction(2), 0, Fraction(4))
    p = PipelineSpec(
        "join", (*relays, join, model),
        (("join", "s1"), ("ra", "join"), ("rb", "join")),
        {"ra": TopicFilter.parse("d/a/x"), "rb": TopicFilter.parse("d/b/x")}, "s1",
    )
    w = WorkloadSpec({"d/a/x": WorkloadEntry(4096, Fraction(5)),
                      "d/b/x": WorkloadEntry(1024, Fraction(5))})
    pubs = {"ra": "a", "rb": "b"}
    for o in (Objective(), Objective(Fraction(1), Fraction(0)),
              Objective(Fraction(0), Fraction(1))):
        got = place_upstream(p, t, w, o, pubs, "s")
        assert got.assignment == ref_place_upstream(p, t, w, o, pubs, "s").assignment
        assert not feasible(got, p, t, w, pubs, "s")
        start = Placement({**got.assignment, "join": "h", "s1": "h"})
        assert failure(replan, start, {"h"}, p, t, w, o, pubs, "s") == failure(
            ref_replan, start, {"h"}, p, t, w, o, pubs, "s"
        )


# ---------------------------------------------------------------------------
# One upstream search per twin class: interchangeable leaves of one hub

# the hub h, the route nodes e and t between it and the publisher side m,
# and the leaf p of m; the leaves of h sort below (a), between (g, k, n)
# and above (z) them
TWIN_CORE = ("e", "h", "m", "t")
TWIN_LEAVES = ("a1", "a2", "g1", "g2", "k1", "k2", "n1", "z1", "z2")


def twin_class(t: Topology, s: str, pubs: dict[str, str], p: PipelineSpec):
    """Everything a twin of s must share with it, as place_upstream's
    docstring states the rule; None when s has no twin class."""
    ups = t.up_neighbors(s)
    if not t.is_node_up(s) or len(ups) != 1 or s in pubs.values():
        return None
    if any(stage.pin.node_id == s for stage in p.stages):
        return None
    hub, link = ups[0]
    n = t.node(s)
    return (hub, link.latency_ms, link.bandwidth_kb_per_ms, n.tier, n.cpu_capacity,
            n.mem_mb, n.has_accelerator, n.domain_id)


def twin_star_case(rng: random.Random):
    """Publishers m, p or the leaf g1 of h, a chain (behind a barrier join of
    two relays now and then) with every pin kind, and the leaves of h drawn
    from two figure sets, so most have a twin, or from their own. A leaf or
    its link is down now and then, which makes it no twin of anything.
    Returns (p, t, w, o, publishers by entry)."""

    def figures():
        return (rng.choice([Fraction(1), Fraction(2), Fraction(1, 3)]),
                Fraction(rng.choice([20, 100, 400])), rng.choice(["device", "edge"]),
                Fraction(rng.choice([1, 4, 8])), Fraction(rng.choice([24, 64, 4096])),
                rng.random() < 0.5)

    sets = [figures(), figures()]
    nodes = [NodeDescriptor(n, "edge", Fraction(8), Fraction(4096), True)
             for n in (*TWIN_CORE, "p")]
    links = [LinkDescriptor("m", "e", 1, 100), LinkDescriptor("e", "h", 1, 100),
             LinkDescriptor("m", "t", rng.choice([1, 2]), 50),
             LinkDescriptor("t", "h", 1, 50), LinkDescriptor("p", "m", 1, 200)]
    for leaf in TWIN_LEAVES:
        roll = rng.random()
        lat, bw, tier, cpu, mem, acc = sets[0] if roll < 0.45 else (
            sets[1] if roll < 0.9 else figures()
        )
        nodes.append(NodeDescriptor(leaf, tier, cpu, mem, acc))
        links.append(LinkDescriptor("h", leaf, lat, bw))
    t = Topology.of(nodes, links)
    if rng.random() < 0.2:
        t = t.with_node_state(rng.choice(TWIN_LEAVES), up=False)
    if rng.random() < 0.2:
        t = t.with_link_state("h", rng.choice(TWIN_LEAVES), up=False)

    def stage(sid: str, kind=Mapping("identity"), pin: Pin | None = None) -> StageSpec:
        roll = rng.random()
        if pin is None:
            pin = (Pin.at_publisher() if roll < 0.1
                   else Pin.at_subscriber() if roll < 0.3
                   else Pin.at_node(rng.choice([*TWIN_CORE, "g2"])) if roll < 0.35
                   else Pin.unpinned())
        return StageSpec(
            sid, kind, Fraction(rng.randint(0, 20), rng.choice([1, 3])),
            Fraction(rng.randint(0, 40)), Fraction(rng.randint(2, 12), 8),
            rng.random() < 0.1, pin,
        )

    chain = [stage(f"s{i}") for i in range(1, rng.randint(1, 3) + 1)]
    edges = [(a.stage_id, b.stage_id) for a, b in zip(chain, chain[1:])]
    publishers = ["m", "p", "g1"]
    if rng.random() < 0.3:
        relays = [stage(r, pin=Pin.at_publisher()) for r in ("in0", "in1")]
        join = stage("join", Funnel("concat", Barrier(("in0", "in1"))), Pin.unpinned())
        front = [*relays, join]
        edges += [("in0", "join"), ("in1", "join"), ("join", "s1")]
        pubs = {"in0": rng.choice(publishers), "in1": rng.choice(publishers)}
    else:
        front = []
        pubs = {"s1": rng.choice(publishers)}
    p = PipelineSpec(
        "twins", tuple(front + chain), tuple(sorted(edges)),
        {sid: TopicFilter.parse(f"d/{sid}/x") for sid in pubs}, chain[-1].stage_id,
    )
    w = WorkloadSpec({
        f"d/{sid}/x": WorkloadEntry(rng.randint(1, 8192), Fraction(rng.randint(1, 100)))
        for sid in pubs
    })
    o = Objective(Fraction(rng.randint(1, 10), 10), Fraction(rng.randint(0, 10), 10))
    return p, t, w, o, pubs


def counted_searches(monkeypatch) -> list[None]:
    """A list that grows by one per upstream search (_upstream_with_fixed)."""
    calls: list[None] = []
    search = placement._upstream_with_fixed

    def counting(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(placement, "_upstream_with_fixed", counting)
    return calls


def place_and_check(memo, searches, served, q, t, w, o, pubs, s, search: bool):
    """place_upstream of q for subscriber s equals the reference, searches
    exactly when search says so, and its score in the memo is a fresh
    cost's; served collects the twin keys of the placements that returned."""
    before = len(searches)
    try:
        pl = place_upstream(q, t, w, o, pubs, s, memo)
    except NoFeasiblePlacementError as exc:
        got = type(exc), str(exc)
    else:
        got = pl.assignment
        assert memo.report(pl, o) == cost(pl, q, t, w, o, pubs, s)
        cls = twin_class(t, s, pubs, q)
        if cls is not None:
            served.add((q.stages, cls))
    assert got == failure(ref_place_upstream, q, t, w, o, pubs, s), s
    assert len(searches) - before == search, s


@pytest.mark.parametrize("seed", range(40))
def test_twin_leaves_share_one_search_and_each_gets_the_reference_placement(
    seed, monkeypatch
):
    """Every leaf of h, twice over and in a seeded order, under two
    pipelines of the same stages as two subscriptions of one model are,
    with one memo: each call equals the reference, and a call searches
    unless a placement for its twin class was already returned."""
    rng = random.Random(seed)
    p, t, w, o, pubs = twin_star_case(rng)
    calls = [(q, s) for q in (p, replace(p, pipeline_id="again"))
             for s in TWIN_LEAVES * 2]
    rng.shuffle(calls)
    memo, served = TransferMemo(t), set()
    searches = counted_searches(monkeypatch)
    for q, s in calls:
        cls = twin_class(t, s, pubs, q)
        search = cls is None or (q.stages, cls) not in served
        place_and_check(memo, searches, served, q, t, w, o, pubs, s, search)


def test_a_subscriber_that_differs_from_a_twin_in_one_way_gets_its_own_search(
    monkeypatch,
):
    """b0 and b1 are twins on hub h; every other subscriber is b0 but for one
    thing: a class field, its hub, publishing, a node pin on it or a second
    up link. Each is placed after b0 and must search for itself. A stage
    pinned at the subscriber computes there from what crosses its link, so
    the score reads the link and the cpu."""
    base = NodeDescriptor("b0", "device", Fraction(4), Fraction(4096), True, "d0")
    variants = {
        "b1": {}, "latency": {}, "bandwidth": {}, "tier": {"tier": "edge"},
        "cpu": {"cpu_capacity": Fraction(2)}, "memory": {"mem_mb": Fraction(2048)},
        "accelerator": {"has_accelerator": False}, "domain": {"domain_id": "d1"},
        "hub": {}, "publisher": {}, "pinned": {}, "two-links": {},
    }
    nodes = [NodeDescriptor(n, "edge", Fraction(8), Fraction(4096), True)
             for n in ("h", "h2", "m")] + [base]
    links = [LinkDescriptor("m", "h", 1, 100), LinkDescriptor("m", "h2", 1, 100),
             LinkDescriptor("h", "b0", 2, 50)]
    for name, fields in variants.items():
        nodes.append(replace(base, node_id=name, **fields))
        lat, bw = {"latency": (3, 50), "bandwidth": (2, 40)}.get(name, (2, 50))
        links.append(LinkDescriptor("h2" if name == "hub" else "h", name, lat, bw))
    links.append(LinkDescriptor("two-links", "m", 9, 10))
    t = Topology.of(nodes, links)
    w = WorkloadSpec({f"d/{sid}/x": WorkloadEntry(4096, Fraction(10))
                      for sid in ("in0", "in1")})
    o = Objective()

    def pipeline(pin_at: str | None):
        relays = tuple(StageSpec(r, Mapping("identity"), 0, 0, 1, pin=Pin.at_publisher())
                       for r in ("in0", "in1"))
        pin = Pin.at_node(pin_at) if pin_at else Pin.unpinned()
        return PipelineSpec(
            "twins", (*relays,
                      StageSpec("join", Funnel("concat", Barrier(("in0", "in1"))),
                                0, 0, 1, pin=pin),
                      shrinker("s1", cost=2),
                      StageSpec("s2", Mapping("identity"), Fraction(5), Fraction(8),
                                1, pin=Pin.at_subscriber())),
            (("in0", "join"), ("in1", "join"), ("join", "s1"), ("s1", "s2")),
            {sid: TopicFilter.parse(f"d/{sid}/x") for sid in ("in0", "in1")}, "s2",
        )

    p = pipeline(None)
    searches = counted_searches(monkeypatch)
    for name in variants:
        memo, served = TransferMemo(t), set()
        pubs = {"in0": "m", "in1": "publisher" if name == "publisher" else "m"}
        q = pipeline("pinned") if name == "pinned" else p
        place_and_check(memo, searches, served, q, t, w, o, pubs, "b0", True)
        place_and_check(memo, searches, served, q, t, w, o, pubs, name, name != "b1")

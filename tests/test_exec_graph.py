"""The incrementally kept execution graph, checked against a full rebuild.

Every step of a random broker history (subscribe, node failure with repair or
suspension, a node coming back, activation of a pending cross-domain
instance) must leave the broker's graph equal to ref_merge_shared_prefix run
from scratch over the active instances: stages, deliveries and every index
dispatch reads.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from infersub.broker import Broker, PeerLink
from infersub.core import (
    CountWindow,
    InferenceSub,
    LayerSpec,
    LinkDescriptor,
    ModelDescriptor,
    NodeDescriptor,
    Publication,
    Subscription,
    Topic,
    TopicFilter,
    Topology,
)
from infersub.errors import InferSubError
from infersub.placement import Objective, WorkloadEntry, WorkloadSpec
from oracles import ref_merge_shared_prefix

BINDINGS = {"d/p1/x": "p1", "d/p2/x": "p2"}
NODES = ("p1", "p2", "h1", "h2", "c", "m1", "m2")
MONITORS = ("m1", "m2")


def topology() -> Topology:
    """Two publishers reach two monitors over a fast hub h1 and the cloud c,
    or over a slow hub h2 that also links to the monitors directly."""
    return Topology.of(
        [
            NodeDescriptor("p1", "device", 8, 512, domain_id="d"),
            NodeDescriptor("p2", "device", 8, 512, domain_id="d"),
            NodeDescriptor("h1", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("h2", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("c", "cloud", 64, 8192, domain_id="d"),
            NodeDescriptor("m1", "edge", 8, 1024, domain_id="d"),
            NodeDescriptor("m2", "edge", 8, 1024, domain_id="d"),
            NodeDescriptor("fc", "cloud", 64, 8192, domain_id="far"),
        ],
        [
            LinkDescriptor("p1", "h1", 1, 200),
            LinkDescriptor("p2", "h1", 1, 200),
            LinkDescriptor("p1", "h2", 3, 100),
            LinkDescriptor("p2", "h2", 3, 100),
            LinkDescriptor("h1", "c", 1, 200),
            LinkDescriptor("h2", "c", 2, 100),
            LinkDescriptor("c", "m1", 1, 200),
            LinkDescriptor("c", "m2", 1, 200),
            LinkDescriptor("h2", "m1", 4, 100),
            LinkDescriptor("h2", "m2", 4, 100),
            LinkDescriptor("c", "fc", 10, 50),
        ],
    )


def workload() -> WorkloadSpec:
    return WorkloadSpec({t: WorkloadEntry(1024, Fraction(10)) for t in BINDINGS})


def model(model_id: str, layers: int) -> ModelDescriptor:
    return ModelDescriptor(
        model_id,
        1,
        "telemetry",
        tuple(
            LayerSpec(Fraction(1), Fraction(8), Fraction(1, 2))
            for _ in range(layers)
        ),
    )


def brokers() -> Broker:
    b = Broker("d", "c", bindings=BINDINGS)
    b.register_model(model("m", 3))
    far = Broker("far", "fc")
    far.register_model(model("r", 2))
    b.link_peer(PeerLink("far", LinkDescriptor("c", "fc", 10, 50)), far)
    return b


# (model, filter, extra InferenceSub fields); "r" lives only at the peer,
# so subscribing to it leaves a pending instance until activation
KINDS = (
    ("m", "d/p1/x", {"k": 1}),
    ("m", "d/p1/x", {"k": 2}),
    ("m", "d/p2/x", {"k": 3}),
    ("m", "d/p1/x", {"k": 2, "privacy_split": True}),
    ("m", "d/p2/x", {"k": 2, "prefilter": "threshold"}),
    ("m", "d/+/x", {"k": 2}),
    ("m", "d/+/x", {"k": 1, "trigger": CountWindow(2)}),
    ("r", "d/p1/x", {"k": 2}),
    ("r", "d/+/x", {"k": 1}),
)

subscribe = st.tuples(
    st.just("subscribe"), st.integers(0, len(KINDS) - 1), st.sampled_from(MONITORS)
)
# subscribes come twice as often as each other step, so histories often
# reach ten instances, where id order is string order (d-i10 before d-i2)
steps = st.lists(
    st.one_of(
        subscribe,
        subscribe,
        st.tuples(st.just("fail"), st.sampled_from(NODES)),
        st.tuples(st.just("recover"), st.sampled_from(NODES)),
        st.tuples(st.just("activate"), st.integers(0, 7)),
    ),
    min_size=20,
    max_size=40,
)


def assert_matches_reference(b: Broker) -> None:
    active = [i for i in b.instances.values() if i.status == "active"]
    ref = ref_merge_shared_prefix(active)
    g = b.exec_graph
    assert g.stages == ref.stages
    assert g.deliveries == ref.deliveries
    for exec_id in list(ref.stages) + ["x-none"]:
        assert g.succs(exec_id) == ref.succs(exec_id)
        assert g.deliveries_from(exec_id) == [
            de for de in ref.deliveries if de.exec_id == exec_id
        ]
    keys = {ex.entry_binding for ex in ref.entries()} | {
        (topic, node) for topic, node in BINDINGS.items()
    }
    for key in keys - {None}:
        assert g.entries(*key) == [
            ex for ex in ref.entries() if ex.entry_binding == key
        ]
    for inst in b.instances.values():
        for sid in inst.pipeline.stage_ids():
            want = [
                ex for ex in ref.stages.values()
                if ex.stage.stage_id == sid and inst.instance_id in ex.instance_ids
            ]
            assert len(want) <= 1
            assert g.exec_for(inst.instance_id, sid) == (want[0] if want else None)


@settings(max_examples=60, deadline=None)
@given(steps)
def test_incremental_graph_equals_a_full_rebuild(history):
    b = brokers()
    t = topology()
    w = workload()
    o = Objective()
    for n, step in enumerate(history):
        if step[0] == "subscribe":
            model_id, flt, extra = KINDS[step[1]]
            sub = Subscription(
                f"s{n}", step[2],
                InferenceSub(model_id, TopicFilter.parse(flt), **extra),
            )
            try:
                b.subscribe(sub, t, w, o)
            except InferSubError:
                pass
        elif step[0] == "fail":
            if t.is_node_up(step[1]):
                t = t.with_node_state(step[1], False)
                b.on_node_failure(step[1], t, w, o)
        elif step[0] == "recover":
            t = t.with_node_state(step[1], True)
        else:
            pending = sorted(
                iid for iid, inst in b.instances.items() if inst.status == "pending"
            )
            if pending:
                b.activate_instance(pending[step[1] % len(pending)])
        assert_matches_reference(b)


def test_repair_carries_the_funnel_counter_to_the_new_exec():
    b = brokers()
    t = topology()
    w = workload()
    o = Objective()
    sub = Subscription(
        "s", "m1",
        InferenceSub("m", TopicFilter.parse("d/+/x"), k=1, trigger=CountWindow(2)),
    )
    b.subscribe(sub, t, w, o)
    old = b.exec_graph.exec_for("d-i1", "m-v1-join")
    assert old.node == "h1"
    emission = Publication(
        topic=Topic(("pipe", "m-v1-join")), source="h1", seq=6,
        ts=Fraction(0), size_bytes=8,
    )
    b.buffer_emission(old, emission)
    assert b.funnel_seed(old.exec_id) == 7

    plan = b.on_node_failure("h1", t.with_node_state("h1", False), w, o)
    assert plan.affected == ("d-i1",)
    new = b.exec_graph.exec_for("d-i1", "m-v1-join")
    assert new.node != "h1" and new.exec_id != old.exec_id
    # the moved funnel continues the stream's seqs instead of restarting at 1
    assert b.funnel_seed(new.exec_id) == 7

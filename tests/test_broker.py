"""Broker state transitions: registry, buffers, acks, repair, peering."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from infersub.broker import (
    Broker,
    BufferEntry,
    Delivery,
    ModelFetch,
    PeerLink,
    StageTask,
)
from infersub.core import (
    DataSub,
    InferenceSub,
    LayerSpec,
    LinkDescriptor,
    ModelDescriptor,
    ModelUpdateSub,
    NodeDescriptor,
    Publication,
    Subscription,
    Topic,
    TopicFilter,
    Topology,
    match_filter,
)
from infersub.errors import (
    AmbiguousPublisherError,
    DuplicatePeerError,
    NoPublisherError,
    StaleVersionError,
    UnknownModelError,
    UnknownSubscriptionError,
)
from infersub.operators import apply_mapping
from infersub.placement import Objective, WorkloadEntry, WorkloadSpec


def model(mid="m", version=1, layers=2, params=()):
    return ModelDescriptor(
        mid,
        version,
        "telemetry",
        tuple(
            LayerSpec(Fraction(1), Fraction(8), Fraction(1, 2))
            for _ in range(layers)
        ),
        tuple(params),
    )


def topo_line():
    return Topology.of(
        [
            NodeDescriptor("pub", "device", 8, 512, domain_id="d"),
            NodeDescriptor("pub2", "device", 8, 512, domain_id="d"),
            NodeDescriptor("hub", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("mon", "edge", 8, 1024, domain_id="d"),
        ],
        [
            LinkDescriptor("pub", "hub", 1, 200),
            LinkDescriptor("pub2", "hub", 1, 200),
            LinkDescriptor("hub", "mon", 1, 200),
        ],
    )


def fresh(bindings=None, **kw):
    bindings = bindings if bindings is not None else {"d/pub/x": "pub"}
    return Broker("d", "hub", bindings=bindings, **kw)


def workload():
    return WorkloadSpec(
        {
            "d/pub/x": WorkloadEntry(1024, Fraction(10)),
            "d/pub2/x": WorkloadEntry(1024, Fraction(10)),
        }
    )


def raw_pub(topic="d/pub/x", source="pub", seq=1, ts=0):
    return Publication(
        topic=Topic.parse(topic),
        source=source,
        seq=seq,
        ts=Fraction(ts),
        size_bytes=1024,
    )


def data_sub(sub_id="tap", flt="d/pub/x", subscriber="mon"):
    return Subscription(sub_id, subscriber, DataSub(TopicFilter.parse(flt)))


def inf_sub(sub_id="infer", flt="d/pub/x", subscriber="mon", **kw):
    return Subscription(
        sub_id, subscriber, InferenceSub("m", TopicFilter.parse(flt), **kw)
    )


# ---------------------------------------------------------------------------
# Registry


def test_register_upgrades_but_never_downgrades():
    b = fresh()
    b.register_model(model(version=2))
    with pytest.raises(StaleVersionError):
        b.register_model(model(version=2))
    with pytest.raises(StaleVersionError):
        b.register_model(model(version=1))
    b.register_model(model(version=5))
    assert b.models["m"].version == 5
    assert b.initial_versions["m"] == 2  # first registration sticks


def test_discover_filters_by_tag_and_id():
    b = fresh()
    b.register_model(model("alpha"))
    other = ModelDescriptor("beta", 1, "visual", model().layers)
    b.register_model(other)
    assert [m.model_id for m in b.discover()] == ["alpha", "beta"]
    assert [m.model_id for m in b.discover(task_tag="visual")] == ["beta"]
    assert [m.model_id for m in b.discover(model_id="alpha")] == ["alpha"]
    assert b.discover(task_tag="aural") == []


def test_register_upgrade_notifies_update_subscribers():
    b = fresh()
    b.register_model(model(version=1, params=(0.0,)))
    sub = Subscription("upd", "mon", ModelUpdateSub("m"))
    _, actions = b.subscribe(sub, topo_line(), workload(), Objective())
    # subscribing against a live version delivers a snapshot right away
    assert len(actions) == 1 and actions[0].pub.semantic_tag == "model-snapshot"
    assert actions[0].pub.seq == 1

    deliveries = b.register_model(model(version=3, params=(1.0,)))
    assert [d.sub_id for d in deliveries] == ["upd"]
    assert deliveries[0].pub.semantic_tag == "model-update"
    assert deliveries[0].pub.seq == 3
    assert str(deliveries[0].pub.topic) == "_models/m"


# ---------------------------------------------------------------------------
# Subscribing


def test_inference_needs_a_bound_publisher():
    b = fresh(bindings={})
    b.register_model(model())
    with pytest.raises(NoPublisherError):
        b.subscribe(inf_sub(), topo_line(), workload(), Objective())
    assert b.subs == {}  # failed subscribe leaves nothing behind


def test_privacy_split_rejects_ambiguous_publishers():
    b = fresh(bindings={"d/pub/x": "pub", "d/pub2/x": "pub2"})
    b.register_model(model())
    with pytest.raises(AmbiguousPublisherError):
        b.subscribe(
            inf_sub(flt="d/+/x", privacy_split=True, k=2),
            topo_line(),
            workload(),
            Objective(),
        )


def test_duplicate_sub_id_rejected():
    b = fresh()
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    with pytest.raises(ValueError):
        b.subscribe(data_sub(), topo_line(), workload(), Objective())


def test_unknown_placer_rejected():
    with pytest.raises(ValueError, match="unknown placer 'nope'"):
        Broker("d", "b", {}, placer="nope")


def test_multi_match_builds_a_funnel_pipeline():
    b = fresh(bindings={"d/pub/x": "pub", "d/pub2/x": "pub2"})
    b.register_model(model())
    b.subscribe(inf_sub(flt="d/+/x", k=2), topo_line(), workload(), Objective())
    inst = b.active_instances()[0]
    ids = inst.pipeline.stage_ids()
    assert "in-d.pub.x" in ids and "in-d.pub2.x" in ids
    assert "m-v1-join" in ids
    # relays stay pinned on their publishers
    assert inst.placement.node_of("in-d.pub.x") == "pub"
    assert inst.placement.node_of("in-d.pub2.x") == "pub2"
    assert inst.entry_bindings["in-d.pub.x"] == ("d/pub/x", "pub")


def test_identical_subscriptions_share_execution_stages():
    b = fresh()
    b.register_model(model())
    b.subscribe(inf_sub("i1", k=2), topo_line(), workload(), Objective())
    b.subscribe(inf_sub("i2", k=2), topo_line(), workload(), Objective())
    per_stage = {}
    for ex in b.exec_graph.stages.values():
        per_stage.setdefault(ex.stage.stage_id, []).append(ex)
    assert sorted(per_stage) == ["m-v1-s1", "m-v1-s2"]
    for stage_id, execs in per_stage.items():
        assert len(execs) == 1
        assert set(execs[0].instance_ids) == {"d-i1", "d-i2"}
    actions = b.on_publish(raw_pub(), Fraction(0))
    assert sum(1 for a in actions if isinstance(a, StageTask)) == 1


# ---------------------------------------------------------------------------
# Publish, buffer, ack


def test_publish_buffers_and_emits_deliveries():
    b = fresh()
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    actions = b.on_publish(raw_pub(), Fraction(0))
    assert [type(a) for a in actions] == [Delivery]
    d = actions[0]
    assert d.sub_id == "tap" and d.origin == "pub"
    assert d.stream == ("pub", "d/pub/x")
    assert b.accept_counts["tap"] == 1
    assert len(b.buffers["tap"]) == 1


def test_data_sub_added_later_matches_the_next_publication():
    b = fresh(bindings={"d/pub/x": "pub", "d/pub2/x": "pub2"})
    b.subscribe(data_sub("tap2", flt="d/+/x"), topo_line(), workload(), Objective())
    assert [a.sub_id for a in b.on_publish(raw_pub(seq=1), Fraction(0))] == ["tap2"]
    b.subscribe(data_sub("tap1"), topo_line(), workload(), Objective())
    b.subscribe(data_sub("tap3", flt="d/pub2/x"), topo_line(), workload(), Objective())
    actions = b.on_publish(raw_pub(seq=2), Fraction(1))
    assert [a.sub_id for a in actions] == ["tap1", "tap2"]  # sub id order


@pytest.mark.parametrize("seed", range(5))
def test_data_matches_scan_only_data_subs_as_a_full_scan_would(seed):
    """_data_subs_matching reads a sorted list of the data subs' ids. On a
    broker that mixes data, inference and model-update subscriptions,
    subscribed in shuffled id order and with a failed subscribe among them,
    it names for every topic what a scan of every subscription names."""
    rng = random.Random(seed)
    b = fresh(bindings={"d/pub/x": "pub", "d/pub2/x": "pub2"})
    b.register_model(model())
    filters = ["d/+/x", "d/pub/x", "d/#", "#", "d/pub2/+", "_models/m"]
    subs = [data_sub(f"tap{i}", flt=flt) for i, flt in enumerate(filters)]
    subs += [inf_sub(f"inf{i}", flt=flt) for i, flt in enumerate(["d/pub/x", "d/+/x"])]
    subs += [Subscription(f"upd{i}", "mon", ModelUpdateSub("m")) for i in range(2)]
    subs.append(inf_sub("orphan", flt="d/none/x"))  # no publisher: rolled back
    rng.shuffle(subs)
    topics = ["d/pub/x", "d/pub2/x", "d/other/y", "_models/m", "_updates/m/t"]

    def full_scan(topic: Topic) -> tuple[str, ...]:
        return tuple(
            sub_id for sub_id in sorted(b.subs)
            if isinstance(b.subs[sub_id].kind, DataSub)
            and match_filter(b.subs[sub_id].kind.filter, topic)
        )

    for sub in subs:
        try:
            b.subscribe(sub, topo_line(), workload(), Objective())
        except NoPublisherError:
            assert sub.sub_id == "orphan"
        for topic in rng.sample(topics, 3):
            parsed = Topic.parse(topic)
            assert b._data_subs_matching(parsed) == full_scan(parsed)
    assert "orphan" not in b.subs


def test_publish_watermark_swallows_replayed_seqs():
    b = fresh()
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    assert b.on_publish(raw_pub(seq=1), Fraction(0))
    assert b.on_publish(raw_pub(seq=1), Fraction(1)) == []
    assert b.on_publish(raw_pub(seq=2), Fraction(2))
    assert b.accept_counts["tap"] == 2


def test_buffer_overflow_drops_oldest():
    b = fresh(buffer_capacity=4)
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    for seq in range(1, 7):
        b.on_publish(raw_pub(seq=seq), Fraction(seq))
    assert b.drop_counts["tap"] == 2
    assert [e.seq for e in b.buffers["tap"]] == [3, 4, 5, 6]
    assert b.accept_counts["tap"] == 6


def test_ack_is_cumulative_per_stream():
    b = fresh()
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    for seq in range(1, 6):
        b.on_publish(raw_pub(seq=seq), Fraction(seq))
    b.on_ack("tap", 3)
    assert [e.seq for e in b.buffers["tap"]] == [4, 5]
    b.on_ack("tap", 2)  # stale ack is harmless
    assert [e.seq for e in b.buffers["tap"]] == [4, 5]
    with pytest.raises(UnknownSubscriptionError):
        b.on_ack("ghost", 1)


def test_ack_needs_stream_when_buffer_is_mixed():
    b = fresh(bindings={"d/pub/x": "pub", "d/pub2/x": "pub2"})
    b.subscribe(data_sub(flt="d/+/x"), topo_line(), workload(), Objective())
    b.on_publish(raw_pub(), Fraction(0))
    b.on_publish(raw_pub(topic="d/pub2/x", source="pub2"), Fraction(1))
    with pytest.raises(ValueError):
        b.on_ack("tap", 1)
    b.on_ack("tap", 1, stream=("pub", "d/pub/x"))
    assert [e.stream for e in b.buffers["tap"]] == [("pub2", "d/pub2/x")]


def test_consume_buffered_removes_exact_seq():
    b = fresh()
    b.register_model(model())
    b.subscribe(inf_sub(), topo_line(), workload(), Objective())
    for seq in range(1, 4):
        b.on_publish(raw_pub(seq=seq), Fraction(seq))
    assert b.consume_buffered(["d-i1"], [raw_pub(seq=2)]) == ["infer"]
    assert [e.seq for e in b.buffers["infer"]] == [1, 3]


def test_buffered_copy_is_taken_after_the_publisher_prefix():
    """A privacy split keeps the chain on the publisher, so a replay from
    the retransmit buffer must send the derived output, never the raw
    input. The buffer holds the publication as published, with the cut a
    replay maps it through."""
    b = fresh()
    b.register_model(model())
    b.subscribe(inf_sub(k=1, privacy_split=True), topo_line(), workload(), Objective())
    inst = b.active_instances()[0]
    assert inst.placement.node_of("m-v1-s1") == "pub"
    assert inst.buffer_cuts["m-v1-s1"] == ("m-v1-s1",)
    pub = raw_pub()
    b.on_publish(pub, Fraction(0))
    entry = b.buffers["infer"][0]
    assert entry.pub is pub
    assert [stage.stage_id for stage in entry.cut] == ["m-v1-s1"]
    assert entry.reentry_stage is None  # nothing left to run on replay
    assert entry.via_stage == "m-v1-s1"
    t = topo_line().with_node_state("pub2", up=False)
    (replay,) = b.on_node_failure("pub2", t, workload(), Objective()).replays
    assert isinstance(replay, Delivery)
    assert replay.pub.tag == "derived"
    assert replay.pub.size_bytes == 256  # 1024 through two 1/2 layers
    assert entry.pub is replay.pub and entry.cut == ()


# ---------------------------------------------------------------------------
# Failure handling


def test_failure_replays_exactly_the_unacked_entries():
    b = fresh()
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    for seq in range(1, 6):
        b.on_publish(raw_pub(seq=seq), Fraction(seq))
    b.on_ack("tap", 2)
    t = topo_line().with_node_state("hub", up=False)
    plan = b.on_node_failure("hub", t, workload(), Objective())
    assert plan.affected == () and plan.suspended == ()
    assert [(a.sub_id, a.pub.seq) for a in plan.replays] == [
        ("tap", 3), ("tap", 4), ("tap", 5)
    ]


def test_failure_replays_a_shared_prefix_once_per_stream_seq():
    """Two instances share their whole chain, so one StageTask per seq feeds
    both; the tap gets a Delivery per unacked entry. Every replay leaves the
    broker node, and replaying keeps the entries buffered until acked."""
    b = fresh()
    b.register_model(model())
    for sub_id in ("infer-a", "infer-b"):
        b.subscribe(inf_sub(sub_id=sub_id, k=2), topo_line(), workload(), Objective())
    b.subscribe(data_sub(), topo_line(), workload(), Objective())
    for seq in range(1, 5):
        b.on_publish(raw_pub(seq=seq), Fraction(seq))
    b.on_ack("tap", 1)
    entry = b.exec_graph.exec_for("d-i1", "m-v1-s1")
    assert entry.instance_ids == ("d-i1", "d-i2")

    t = topo_line().with_node_state("pub2", up=False)
    plan = b.on_node_failure("pub2", t, workload(), Objective())
    tasks = [a for a in plan.replays if isinstance(a, StageTask)]
    deliveries = [a for a in plan.replays if isinstance(a, Delivery)]
    assert len(tasks) + len(deliveries) == len(plan.replays)
    assert [(a.exec_id, a.node, a.pub.seq, a.via_stage) for a in tasks] == [
        (entry.exec_id, entry.node, seq, None) for seq in (1, 2, 3, 4)
    ]
    assert [(a.sub_id, a.subscriber, a.stream, a.pub.seq) for a in deliveries] == [
        ("tap", "mon", ("pub", "d/pub/x"), seq) for seq in (2, 3, 4)
    ]
    assert {a.origin for a in plan.replays} == {"hub"}
    assert [len(b.buffers[s]) for s in ("infer-a", "infer-b", "tap")] == [4, 4, 3]


def test_failure_of_subscriber_suspends_and_drops_entries():
    b = fresh()
    b.register_model(model())
    b.subscribe(inf_sub(), topo_line(), workload(), Objective())
    b.on_publish(raw_pub(), Fraction(0))
    t = topo_line().with_node_state("mon", up=False)
    plan = b.on_node_failure("mon", t, workload(), Objective())
    assert plan.suspended == ("d-i1",)
    assert plan.replays == ()
    assert b.instances["d-i1"].status == "suspended"
    assert b.instances["d-i1"].suspend_reason == "endpoint-failed"
    assert b.buffers["infer"] == []


def test_failure_replans_stages_off_the_dead_node():
    # slow detour via alt keeps the primary route on hub, but survives it
    t = Topology.of(
        [
            NodeDescriptor("pub", "device", 8, 512, domain_id="d"),
            NodeDescriptor("hub", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("alt", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("mon", "edge", 8, 1024, domain_id="d"),
        ],
        [
            LinkDescriptor("pub", "hub", 1, 200),
            LinkDescriptor("hub", "mon", 1, 200),
            LinkDescriptor("pub", "alt", 5, 100),
            LinkDescriptor("alt", "mon", 5, 100),
        ],
    )
    b = fresh()
    b.register_model(model(layers=4))
    b.subscribe(inf_sub(k=2), t, workload(), Objective())
    inst = b.active_instances()[0]
    hosts = set(inst.placement.assignment.values())
    assert "hub" in hosts  # the fast middle pulls at least one stage
    down = t.with_node_state("hub", up=False)
    plan = b.on_node_failure("hub", down, workload(), Objective())
    assert plan.affected == ("d-i1",)
    assert inst.repairs == 1
    assert "hub" not in set(inst.placement.assignment.values())


# ---------------------------------------------------------------------------
# Peering


def bridge(a="hub", b="fhub"):
    return LinkDescriptor(a, b, Fraction(10), Fraction(50))


def far_topology():
    return Topology.of(
        [
            NodeDescriptor("pub", "device", 8, 512, domain_id="d"),
            NodeDescriptor("pub2", "device", 8, 512, domain_id="d"),
            NodeDescriptor("hub", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("mon", "edge", 8, 1024, domain_id="d"),
            NodeDescriptor("fhub", "edge", 16, 2048, domain_id="far"),
        ],
        [
            LinkDescriptor("pub", "hub", 1, 200),
            LinkDescriptor("pub2", "hub", 1, 200),
            LinkDescriptor("hub", "mon", 1, 200),
            bridge(),
        ],
    )


def test_peer_links_are_unique_per_domain():
    b = fresh()
    far = Broker("far", "fhub")
    b.link_peer(PeerLink("far", bridge()), far)
    with pytest.raises(DuplicatePeerError):
        b.link_peer(PeerLink("far", bridge()), far)


def test_remote_resolution_builds_pending_instance_and_fetch():
    b = fresh()
    far = Broker("far", "fhub", artifact_kb={"m": 400})
    far.register_model(model())
    b.link_peer(PeerLink("far", bridge()), far)
    _, actions = b.subscribe(inf_sub(), far_topology(), workload(), Objective())
    fetches = [a for a in actions if isinstance(a, ModelFetch)]
    assert len(fetches) == 1
    assert fetches[0].artifact_kb == 400
    assert fetches[0].bridge == ("fhub", "hub")
    inst = b.instances[fetches[0].instance_id]
    assert inst.status == "pending"
    assert inst.domain_span == "cross:far"
    assert b.active_instances() == []
    b.activate_instance(inst.instance_id)
    assert b.active_instances() == [inst]


def test_remote_resolution_needs_an_up_bridge():
    b = fresh()
    far = Broker("far", "fhub")
    far.register_model(model())
    b.link_peer(PeerLink("far", bridge()), far)
    t = far_topology().with_link_state("hub", "fhub", up=False)
    with pytest.raises(UnknownModelError):
        b.subscribe(inf_sub(), t, workload(), Objective())


def test_unknown_model_everywhere():
    b = fresh()
    with pytest.raises(UnknownModelError):
        b.subscribe(inf_sub(), topo_line(), workload(), Objective())


# ---------------------------------------------------------------------------
# Trainer rounds


def update_pub(trainer, seq, payload, ts=0):
    return Publication(
        topic=Topic.parse(f"_updates/m/{trainer}"),
        source=trainer,
        seq=seq,
        ts=Fraction(ts),
        size_bytes=64,
        payload=payload,
    )


def trainer_broker():
    b = fresh(trainers={"m": ("pub", "pub2")})
    b.register_model(model(params=(0.0, 10.0)))
    b.subscribe(
        Subscription("upd", "mon", ModelUpdateSub("m")),
        topo_line(),
        workload(),
        Objective(),
    )
    return b


def test_round_aggregates_once_all_trainers_submit():
    b = trainer_broker()
    assert b.on_publish(update_pub("pub", 1, (1.0, 2.0)), Fraction(1)) == []
    actions = b.on_publish(update_pub("pub2", 1, (3.0, 4.0)), Fraction(2))
    updates = [a for a in actions if getattr(a.pub, "semantic_tag", None) == "model-update"]
    assert len(updates) == 1
    assert updates[0].pub.seq == 2
    assert updates[0].pub.payload == (2.0, 3.0)  # the mean delta
    assert b.models["m"].version == 2
    assert b.models["m"].params == (2.0, 13.0)


def test_one_slow_trainer_holds_back_every_round():
    b = trainer_broker()
    # pub races two rounds ahead; nothing may apply until pub2 catches up
    assert b.on_publish(update_pub("pub", 1, (1.0, 1.0)), Fraction(1)) == []
    assert b.on_publish(update_pub("pub", 2, (10.0, 10.0)), Fraction(2)) == []
    assert b.models["m"].version == 1
    first = b.on_publish(update_pub("pub2", 1, (1.0, 1.0)), Fraction(3))
    assert [a.pub.seq for a in first if a.pub.semantic_tag == "model-update"] == [2]
    assert b.models["m"].version == 2
    second = b.on_publish(update_pub("pub2", 2, (10.0, 10.0)), Fraction(4))
    assert [a.pub.seq for a in second if a.pub.semantic_tag == "model-update"] == [3]
    assert b.models["m"].version == 3
    assert b.models["m"].params == (11.0, 21.0)


def test_stale_stream_seqs_never_reenter():
    """The per-stream watermark makes replayed submissions inert."""
    b = trainer_broker()
    b.on_publish(update_pub("pub", 1, (1.0, 1.0)), Fraction(1))
    assert b.on_publish(update_pub("pub", 1, (99.0, 99.0)), Fraction(2)) == []
    actions = b.on_publish(update_pub("pub2", 1, (3.0, 3.0)), Fraction(3))
    updates = [a for a in actions if a.pub.semantic_tag == "model-update"]
    assert updates[0].pub.payload == (2.0, 2.0)  # the replay never counted


def test_non_trainer_submissions_are_ignored():
    b = trainer_broker()
    actions = b.on_publish(
        Publication(
            topic=Topic.parse("_updates/m/mon"),
            source="mon",
            seq=1,
            ts=Fraction(0),
            size_bytes=8,
            payload=(9.0, 9.0),
        ),
        Fraction(0),
    )
    assert [a for a in actions if isinstance(a, Delivery)] == []
    assert b.pending_updates == {}


def test_buffered_copies_equal_each_instances_own_mapping_chain(monkeypatch):
    """One publication feeds four privacy-split instances: two identical
    (one shared cut), one to another subscriber (the same cut exec) and one
    at k=2, whose cut starts with a stage of the same id as the k=1 cut but
    ends elsewhere, with another size (ceil(ceil(1024/3) * 3/4) = 257, not
    256). Publishing maps nothing. Each replayed copy is what mapping the
    publication through the instance's own cut gives, each distinct cut
    exec maps it once, and instances on one cut exec replay one object,
    which a later failure replays again without mapping."""
    import infersub.broker as broker_module

    b = fresh()
    b.register_model(ModelDescriptor("m", 1, "telemetry", (
        LayerSpec(Fraction(1), Fraction(8), Fraction(1, 3)),
        LayerSpec(Fraction(1), Fraction(8), Fraction(3, 4)),
    )))
    t, w, o = topo_line(), workload(), Objective()
    b.subscribe(inf_sub("a1", k=1, privacy_split=True), t, w, o)
    b.subscribe(inf_sub("a2", k=1, privacy_split=True), t, w, o)
    b.subscribe(inf_sub("a3", k=1, privacy_split=True, subscriber="hub"), t, w, o)
    b.subscribe(inf_sub("c", k=2, privacy_split=True), t, w, o)
    cuts = {}
    for inst in b.active_instances():
        cut = inst.buffer_cuts["m-v1-s1"]
        cuts[b.exec_graph.exec_for(inst.instance_id, cut[-1]).exec_id] = cut
    assert sorted(cuts.values()) == [("m-v1-s1",), ("m-v1-s1", "m-v1-s2")]

    mapped = []

    def counting(stage, pub):
        mapped.append(stage.stage_id)
        return apply_mapping(stage, pub)

    monkeypatch.setattr(broker_module, "apply_mapping", counting)
    pub = raw_pub()
    b.on_publish(pub, Fraction(0))
    assert mapped == []
    down = t.with_node_state("pub2", up=False)
    replays = {a.sub_id: a for a in b.on_node_failure("pub2", down, w, o).replays}
    assert len(mapped) == sum(len(cut) for cut in cuts.values())
    copies = {}
    for inst in b.active_instances():
        want = pub
        for sid in inst.buffer_cuts["m-v1-s1"]:
            want = apply_mapping(inst.pipeline.stage(sid), want)
        replay = replays[inst.sub_id]
        assert isinstance(replay, Delivery)
        assert replay.pub == want
        (entry,) = b.buffers[inst.sub_id]
        assert entry.pub is replay.pub
        copies[inst.sub_id] = replay.pub.size_bytes
    assert copies == {"a1": 256, "a2": 256, "a3": 256, "c": 257}
    assert replays["a1"].pub is replays["a2"].pub is replays["a3"].pub

    n = len(mapped)
    again = b.on_node_failure("pub2", down, w, o).replays
    assert len(mapped) == n
    assert all(a.pub is replays[a.sub_id].pub for a in again)


@pytest.mark.parametrize("join", ["subscribe", "activate"])
def test_an_instance_joining_a_shared_entry_is_buffered_from_the_next_publication(join):
    """i2 runs on i1's entry exec from the moment it joins the exec graph:
    at its subscribe for a local model, at its activate_instance for a
    model fetched across the bridge. It is buffered for the publications
    after that, never for those before."""
    b = fresh()
    t, w, o = far_topology(), workload(), Objective()
    if join == "subscribe":
        b.register_model(model())
    else:
        far = Broker("far", "fhub")
        far.register_model(model())
        b.link_peer(PeerLink("far", bridge()), far)

    def add(sub_id):
        _, actions = b.subscribe(inf_sub(sub_id, k=2), t, w, o)
        return [a.instance_id for a in actions if isinstance(a, ModelFetch)]

    for iid in add("i1"):
        b.activate_instance(iid)
    b.on_publish(raw_pub(seq=1), Fraction(1))
    fetched = add("i2")
    b.on_publish(raw_pub(seq=2), Fraction(2))
    for iid in fetched:
        b.activate_instance(iid)
    b.on_publish(raw_pub(seq=3), Fraction(3))
    (entry,) = b.exec_graph.entries("d/pub/x", "pub")
    assert entry.instance_ids == ("d-i1", "d-i2")
    assert [e.seq for e in b.buffers["i1"]] == [1, 2, 3]
    assert [e.seq for e in b.buffers["i2"]] == ([2, 3] if join == "subscribe" else [3])


def test_a_repair_that_moves_a_stage_onto_the_publisher_changes_the_buffered_copy():
    """s1 runs on the publisher and s2 on hub, so a replay sends the output
    of s1 and re-enters at s2. Once hub fails, the repair moves s2 onto the
    publisher too, while the entry exec, s1's, stays: a publication after
    that replays as the output of s2, which nothing follows. The entry of
    before keeps its own cut, reentry and via stages."""
    t = Topology.of(
        [
            NodeDescriptor("pub", "device", 8, 16, domain_id="d"),
            NodeDescriptor("hub", "edge", 16, 2048, domain_id="d"),
            NodeDescriptor("alt", "edge", 1, 2048, domain_id="d"),
            NodeDescriptor("mon", "edge", 8, 1024, domain_id="d"),
        ],
        [
            LinkDescriptor("pub", "hub", 1, 20),
            LinkDescriptor("hub", "mon", 1, 200),
            LinkDescriptor("pub", "alt", 2, 20),
            LinkDescriptor("alt", "mon", 2, 100),
        ],
    )
    w, o = workload(), Objective()
    b = fresh()
    b.register_model(model())
    b.subscribe(inf_sub(k=2), t, w, o)
    inst = b.active_instances()[0]
    assert inst.placement.assignment == {"m-v1-s1": "pub", "m-v1-s2": "hub"}
    (entry,) = b.exec_graph.entries("d/pub/x", "pub")
    b.on_publish(raw_pub(seq=1), Fraction(1))
    plan = b.on_node_failure("hub", t.with_node_state("hub", up=False), w, o)
    assert inst.placement.assignment == {"m-v1-s1": "pub", "m-v1-s2": "pub"}
    assert b.exec_graph.entries("d/pub/x", "pub") == [entry]
    s2 = b.exec_graph.exec_for(inst.instance_id, "m-v1-s2")
    assert [
        (type(a), a.pub.seq, a.pub.size_bytes, a.exec_id, a.via_stage)
        for a in plan.replays
    ] == [(StageTask, 1, 512, s2.exec_id, "m-v1-s1")]
    b.on_publish(raw_pub(seq=2), Fraction(2))
    plan = b.on_node_failure("alt", t.with_node_state("alt", up=False), w, o)
    assert plan.affected == ()
    first, second = plan.replays
    assert (type(first), first.pub.seq, first.pub.size_bytes, first.exec_id,
            first.via_stage) == (StageTask, 1, 512, s2.exec_id, "m-v1-s1")
    assert (type(second), second.pub.seq, second.pub.size_bytes,
            second.pub.tag) == (Delivery, 2, 256, "derived")
    assert [
        (e.seq, e.pub.size_bytes, e.reentry_stage, e.via_stage)
        for e in b.buffers["infer"]
    ] == [(1, 512, "m-v1-s2", "m-v1-s1"), (2, 256, None, "m-v1-s2")]

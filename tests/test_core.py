"""Core type behavior: topics, publications, model splitting, topology."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from infersub.core import (
    LayerSpec,
    LinkDescriptor,
    MATCH_ALL,
    Mapping,
    ModelDescriptor,
    NodeDescriptor,
    PipelineSpec,
    Pin,
    Publication,
    StageSpec,
    Topic,
    TopicFilter,
    TopicIndex,
    Topology,
    UPDATE_TOPIC_ROOT,
    inference_inputs,
    match_filter,
    route,
    route_latency,
    scaled_size,
    split_model,
    validate_pipeline,
)
from infersub.errors import NoRouteError, SplitArityError

from oracles import ref_route, ref_route_latency

SEG = st.text(alphabet="abcdefgh0123", min_size=1, max_size=5)


# ---------------------------------------------------------------------------
# Topics and filters


@given(st.lists(SEG, min_size=1, max_size=4))
def test_topic_parse_round_trip(segments):
    topic = Topic(tuple(segments))
    assert Topic.parse(str(topic)) == topic


@pytest.mark.parametrize("bad", ["", "a//b", "a/+/b", "x#y", "a/"])
def test_topic_rejects_wildcards_and_empties(bad):
    with pytest.raises(ValueError):
        Topic.parse(bad)


def test_filter_hash_only_last_segment():
    TopicFilter.parse("a/b/#")
    with pytest.raises(ValueError):
        TopicFilter.parse("a/#/b")


@given(st.lists(SEG, min_size=1, max_size=4))
def test_wildcard_free_filter_matches_exactly_itself(segments):
    topic = Topic(tuple(segments))
    filt = TopicFilter(tuple(segments))
    assert match_filter(filt, topic)
    other = Topic(tuple(segments) + ("z",))
    assert not match_filter(filt, other)
    if len(segments) > 1:
        assert not match_filter(filt, Topic(tuple(segments[:-1])))


@given(st.lists(SEG, min_size=1, max_size=4), st.lists(SEG, min_size=1, max_size=4))
def test_match_filter_is_stable(a, b):
    filt = TopicFilter(tuple(a))
    topic = Topic(tuple(b))
    assert match_filter(filt, topic) == match_filter(filt, topic)


def test_plus_matches_exactly_one_segment():
    filt = TopicFilter.parse("net/+/kpi")
    assert filt.matches(Topic.parse("net/cell1/kpi"))
    assert not filt.matches(Topic.parse("net/kpi"))
    assert not filt.matches(Topic.parse("net/a/b/kpi"))


def test_hash_matches_any_tail():
    filt = TopicFilter.parse("net/#")
    assert filt.matches(Topic.parse("net/a"))
    assert filt.matches(Topic.parse("net/a/b/c"))
    # '#' needs at least the preceding segments to line up
    assert not filt.matches(Topic.parse("other/a"))
    assert MATCH_ALL.matches(Topic.parse("anything/at/all"))


# few segment values, so random filters and topics often match; "_updates"
# heads the model-update topics that the index holds and its callers skip
INDEX_SEG = st.sampled_from(["a", "b", "c", UPDATE_TOPIC_ROOT])
INDEX_TOPIC = st.lists(INDEX_SEG, min_size=1, max_size=4).map(
    lambda segs: Topic(tuple(segs))
)


@st.composite
def index_filters(draw, topics):
    """A filter of exact segments and "+", maybe with a trailing "#", or one
    of the topics itself."""
    if topics and draw(st.booleans()):
        return TopicFilter(draw(st.sampled_from(topics)).segments)
    segs = draw(st.lists(st.one_of(INDEX_SEG, st.just("+")), max_size=4))
    if not segs or draw(st.booleans()):
        segs.append("#")
    return TopicFilter(tuple(segs))


@given(st.data(), st.lists(INDEX_TOPIC, max_size=12))
def test_topic_index_matches_match_filter_as_topics_are_added(data, topics):
    index = TopicIndex()
    added: list[Topic] = []
    for topic in topics + [None]:
        for filt in data.draw(st.lists(index_filters(added), min_size=1, max_size=4)):
            want = sorted({str(t) for t in added if match_filter(filt, t)})
            assert index.matching(filt) == want
        if topic is not None:
            index.add(topic)
            added.append(topic)


def test_topic_index_hash_takes_the_parent_and_skips_siblings():
    index = TopicIndex(Topic.parse(t) for t in ["a", "a/b", "a/b/c", "ab/x", "b"])
    assert index.matching(TopicFilter.parse("a/#")) == ["a", "a/b", "a/b/c"]
    assert index.matching(MATCH_ALL) == ["a", "a/b", "a/b/c", "ab/x", "b"]
    assert index.matching(TopicFilter.parse("+/+")) == ["a/b", "ab/x"]
    assert index.matching(TopicFilter.parse("a/+/c/#")) == ["a/b/c"]
    assert index.matching(TopicFilter.parse("c")) == []


def test_inference_inputs_are_the_matches_but_update_submissions():
    topics = ["a/x", f"{UPDATE_TOPIC_ROOT}/m/p", "a/y", "b"]
    index = TopicIndex(Topic.parse(t) for t in topics)
    assert inference_inputs(index, MATCH_ALL) == ["a/x", "a/y", "b"]
    assert inference_inputs(index, TopicFilter.parse("+/+/p")) == []
    assert inference_inputs(index, TopicFilter.parse("a/+")) == ["a/x", "a/y"]


# ---------------------------------------------------------------------------
# Size law and publications


@given(st.integers(1, 10**7), st.fractions(min_value="1/1000", max_value=4))
def test_scaled_size_is_max_one_ceil(n, sel):
    got = scaled_size(n, Fraction(sel))
    assert got == max(1, math.ceil(n * Fraction(sel)))
    assert got >= 1


def test_scaled_size_boundaries():
    assert scaled_size(10, Fraction(1, 10)) == 1
    assert scaled_size(11, Fraction(1, 10)) == 2
    assert scaled_size(1, Fraction(1, 1000)) == 1
    assert scaled_size(7, Fraction(1)) == 7


def test_publication_validation():
    topic = Topic.parse("a/b")
    with pytest.raises(ValueError):
        Publication(topic, "n", -1, Fraction(0), 1)
    with pytest.raises(ValueError):
        Publication(topic, "n", 0, Fraction(-1), 1)
    with pytest.raises(ValueError):
        Publication(topic, "n", 0, Fraction(0), 0)
    with pytest.raises(ValueError):
        Publication(topic, "n", 0, Fraction(0), 1, tag="cooked")


@pytest.mark.parametrize("ts", [Fraction(-1, 3), -0.001, -1, "-0.5"])
def test_publication_rejects_a_negative_ts(ts):
    with pytest.raises(ValueError, match="ts must be >= 0"):
        Publication(Topic.parse("a/b"), "n", 0, ts, 1)


@pytest.mark.parametrize("ts", [0.1, "0.1", "1/10", Fraction(1, 10)])
def test_publication_ts_becomes_an_exact_fraction(ts):
    pub = Publication(Topic.parse("a/b"), "n", 0, ts, 1)
    assert type(pub.ts) is Fraction
    assert pub.ts == Fraction(1, 10)


def test_publication_payload_becomes_floats():
    pub = Publication(Topic.parse("a/b"), "n", 0, Fraction(0), 1, payload=[1, 2, 3])
    assert pub.payload == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in pub.payload)


@pytest.mark.parametrize("ts", [True, False])
def test_publication_rejects_a_bool_ts(ts):
    with pytest.raises(TypeError):
        Publication(Topic.parse("a/b"), "n", 0, ts, 1)


# ---------------------------------------------------------------------------
# Model splitting


@st.composite
def models(draw):
    n = draw(st.integers(1, 8))
    layers = tuple(
        LayerSpec(
            compute_cost=Fraction(draw(st.integers(0, 50)), draw(st.integers(1, 4))),
            mem_mb=Fraction(2**i),  # unique weights expose the grouping
            selectivity=Fraction(draw(st.integers(1, 30)), 10),
            needs_accelerator=draw(st.booleans()),
        )
        for i in range(n)
    )
    return ModelDescriptor("m", 1, "text", layers)


@given(models(), st.integers(1, 8), st.booleans())
def test_split_model_grouping_is_contiguous_and_balanced(model, k, privacy):
    n = len(model.layers)
    if not 1 <= k <= n:
        with pytest.raises(SplitArityError):
            split_model(model, k, privacy)
        return
    chain = split_model(model, k, privacy)
    assert len(chain.stages) == k
    base, rem = divmod(n, k)
    sizes = [base + 1 if i < rem else base for i in range(k)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    at = 0
    for stage, size in zip(chain.stages, sizes):
        group = model.layers[at : at + size]
        at += size
        assert stage.mem_mb == sum((l.mem_mb for l in group), Fraction(0))
        assert stage.compute_cost == sum(
            (l.compute_cost for l in group), Fraction(0)
        )
        assert stage.needs_accelerator == any(l.needs_accelerator for l in group)
    total_cost = sum((l.compute_cost for l in model.layers), Fraction(0))
    assert sum((s.compute_cost for s in chain.stages), Fraction(0)) == total_cost
    sel = Fraction(1)
    for l in model.layers:
        sel *= l.selectivity
    got = Fraction(1)
    for s in chain.stages:
        got *= s.selectivity
    assert got == sel


@given(models())
def test_split_model_full_arity_is_per_layer(model):
    chain = split_model(model, len(model.layers), False)
    for stage, layer in zip(chain.stages, model.layers):
        assert stage.compute_cost == layer.compute_cost
        assert stage.mem_mb == layer.mem_mb
        assert stage.selectivity == layer.selectivity
        assert stage.needs_accelerator == layer.needs_accelerator


@given(models(), st.integers(1, 8), st.booleans())
def test_split_model_always_validates(model, k, privacy):
    if not 1 <= k <= len(model.layers):
        return
    assert validate_pipeline(split_model(model, k, privacy)) == []


@given(models(), st.integers(1, 8))
def test_split_model_privacy_pins_first_and_last(model, k):
    if not 1 <= k <= len(model.layers):
        return
    chain = split_model(model, k, True)
    assert chain.stages[0].pin.kind == "publisher"
    assert chain.stages[-1].pin.kind == "publisher"
    for s in chain.stages[1:-1]:
        assert s.pin.kind == "unpinned"
    plain = split_model(model, k, False)
    assert all(s.pin.kind == "unpinned" for s in plain.stages)


# ---------------------------------------------------------------------------
# Pipeline validation


def _stage(sid, pin=None):
    return StageSpec(sid, Mapping("identity"), 1, 1, 1, pin=pin or Pin.unpinned())


def test_validate_reports_multiple_sinks():
    p = PipelineSpec(
        "p",
        (_stage("a"), _stage("b"), _stage("c")),
        (("a", "b"), ("a", "c")),
        {"a": MATCH_ALL},
        "b",
    )
    rules = {v.rule for v in validate_pipeline(p)}
    assert "MultipleSinks" in rules


def test_validate_reports_cycles_and_unknown_stages():
    p = PipelineSpec(
        "p",
        (_stage("a"), _stage("b")),
        (("a", "b"), ("b", "a"), ("a", "ghost")),
        {"a": MATCH_ALL},
        "b",
    )
    rules = {v.rule for v in validate_pipeline(p)}
    assert "CycleDetected" in rules
    assert "UnknownStage" in rules


def test_cyclic_pipeline_builds_and_raises_only_when_ordered():
    p = PipelineSpec(
        "p",
        (_stage("a"), _stage("b"), _stage("c")),
        (("a", "b"), ("b", "c"), ("c", "b")),
        {"a": MATCH_ALL},
        "c",
    )
    assert p.entry_ids() == ["a"]
    with pytest.raises(ValueError, match="cycle"):
        p.topo_order()


def test_topo_order_and_entries_are_fresh_lists():
    p = PipelineSpec(
        "p", (_stage("a"), _stage("b")), (("a", "b"),), {"a": MATCH_ALL}, "b"
    )
    p.topo_order().append("x")
    p.entry_ids().clear()
    assert p.topo_order() == ["a", "b"]
    assert p.entry_ids() == ["a"]


def test_validate_reports_unbound_entry():
    p = PipelineSpec("p", (_stage("a"), _stage("b")), (("a", "b"),), {}, "b")
    rules = {v.rule for v in validate_pipeline(p)}
    assert "UnboundEntry" in rules


# ---------------------------------------------------------------------------
# Topology and routing


@st.composite
def topologies(draw):
    n = draw(st.integers(2, 6))
    ids = [f"n{i}" for i in range(n)]
    nodes = [NodeDescriptor(i, "edge", Fraction(4), Fraction(256)) for i in ids]
    pairs = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        pairs.add((min(i, j), max(i, j)))  # spanning tree keeps it connected
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    links = [
        LinkDescriptor(
            ids[i],
            ids[j],
            latency_ms=Fraction(draw(st.integers(1, 50)), 10),
            bandwidth_kb_per_ms=Fraction(draw(st.integers(10, 500))),
        )
        for i, j in sorted(pairs)
    ]
    return Topology.of(nodes, links)


@given(topologies(), st.integers(0, 5), st.integers(0, 5))
def test_route_reverse_symmetry(topo, ai, bi):
    ids = sorted(topo.nodes)
    a, b = ids[ai % len(ids)], ids[bi % len(ids)]
    forward = route(topo, a, b)
    assert forward == list(reversed(route(topo, b, a)))
    assert forward[0] == a and forward[-1] == b
    assert route(topo, a, b) == forward  # deterministic


@given(topologies(), st.integers(0, 5), st.integers(0, 5))
def test_route_latency_matches_links(topo, ai, bi):
    ids = sorted(topo.nodes)
    a, b = ids[ai % len(ids)], ids[bi % len(ids)]
    path = route(topo, a, b)
    lat, hops = route_latency(topo, a, b)
    assert hops == len(path) - 1
    total = Fraction(0)
    for x, y in zip(path, path[1:]):
        link = topo.link_between(x, y)
        assert link is not None and topo.is_link_up(x, y)
        total += link.latency_ms
    assert lat == total


def test_route_errors_when_endpoint_down_or_disconnected():
    topo = Topology.of(
        [
            NodeDescriptor("a", "edge", 4, 64),
            NodeDescriptor("b", "edge", 4, 64),
            NodeDescriptor("c", "edge", 4, 64),
        ],
        [LinkDescriptor("a", "b", 1, 100)],
    )
    downed = topo.with_node_state("b", up=False)
    for t, a, b in [
        (topo, "a", "c"), (topo, "a", "zz"), (topo, "zz", "a"),
        (downed, "a", "b"), (downed, "b", "a"),
    ]:
        with pytest.raises(NoRouteError):
            route(t, a, b)
        with pytest.raises(NoRouteError):
            route_latency(t, a, b)


@st.composite
def flaky_topology_chains(draw):
    """A random topology and a chain of node/link state flips on it.

    Latencies mix integers with decimals and thirds (unlike denominators), so
    equal-latency routes are common and the hop and path tie-breaks decide;
    links may start down, and the graph need not be connected. A step is
    either one flip or an excursion: overlapping node and link faults, then
    their undoing in a random order, which brings the chain back to the state
    the excursion left (the loaded one when it starts at the first snapshot).
    """
    n = draw(st.integers(2, 7))
    ids = [f"n{i}" for i in range(n)]
    nodes = [NodeDescriptor(i, "edge", Fraction(4), Fraction(256)) for i in ids]
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda ij: ij[0] < ij[1]),
        max_size=n * (n - 1) // 2,
    ))
    links = [
        LinkDescriptor(
            ids[i], ids[j],
            latency_ms=draw(st.sampled_from((0, 1, 2, 0.1, 0.25, 0.5, 2.5, "1/3"))),
            bandwidth_kb_per_ms=100,
            state=draw(st.sampled_from(("up", "up", "down"))),
        )
        for i, j in sorted(pairs)
    ]
    chain = [Topology.of(nodes, links)]
    targets = [("node", i) for i in ids] + [("link", e) for e in sorted(chain[0].links)]

    def is_up(t, target):
        kind, what = target
        return t.links[what].state == "up" if kind == "link" else t.is_node_up(what)

    def set_state(t, target, up):
        kind, what = target
        if kind == "link":
            return t.with_link_state(*what, up)
        return t.with_node_state(what, up)

    for _ in range(draw(st.integers(0, 4))):
        faults = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3))
        if draw(st.booleans()):
            chain.append(set_state(chain[-1], faults[0], draw(st.booleans())))
            continue
        left = chain[-1]
        for target in faults:
            chain.append(set_state(chain[-1], target, not is_up(left, target)))
        for target in draw(st.permutations(faults)):
            chain.append(set_state(chain[-1], target, is_up(left, target)))
    return chain


def _outcome(fn, t, a, b):
    try:
        return fn(t, a, b)
    except NoRouteError:
        return NoRouteError


@given(flaky_topology_chains(), st.data())
def test_route_matches_the_per_call_dijkstra_reference(chain, data):
    ends = sorted(chain[0].nodes) + ["ghost"]  # "ghost" is not a node
    pairs = [(a, b) for a in ends for b in ends]
    # every snapshot is queried in turn, so a later one starts from the
    # cached trees of the earlier ones still alive; each takes its queries
    # in a drawn order, so no answer can depend on which trees exist yet.
    # Topology.shortest answers first, None exactly where the reference raises
    for t in chain:
        for a, b in data.draw(st.permutations(pairs)):
            got = t.shortest(a, b)
            want = _outcome(ref_route, t, a, b)
            if want is NoRouteError:
                assert got is None
            else:
                lat, hops, path = got
                assert list(path) == want
                assert (Fraction(lat, t._scale), hops) == ref_route_latency(t, a, b)
            assert _outcome(route, t, a, b) == want
            assert _outcome(route_latency, t, a, b) == _outcome(
                ref_route_latency, t, a, b
            )


def _diamond() -> Topology:
    """a-m-b is the short way (2 ms), a-n-b the long one (4 ms)."""
    return Topology.of(
        [NodeDescriptor(i, "edge", 4, 64) for i in "abmn"],
        [
            LinkDescriptor("a", "m", 1, 100), LinkDescriptor("m", "b", 1, 100),
            LinkDescriptor("a", "n", 2, 100), LinkDescriptor("n", "b", 2, 100),
        ],
    )


def test_link_fault_snapshot_ignores_the_cached_tree_of_its_parent():
    t = _diamond()
    assert route(t, "a", "b") == ["a", "m", "b"]  # caches a's tree on t
    t2 = t.with_link_state("a", "m", up=False)
    assert route(t2, "a", "b") == ["a", "n", "b"]
    assert route_latency(t2, "a", "b") == (Fraction(4), 2)
    assert route(t, "a", "b") == ["a", "m", "b"]
    assert route(t2.with_link_state("a", "m", up=True), "a", "b") == ["a", "m", "b"]


def test_node_fault_snapshot_ignores_the_cached_tree_of_its_parent():
    t = _diamond()
    assert route(t, "a", "b") == ["a", "m", "b"]
    t2 = t.with_node_state("m", up=False)
    assert route(t2, "a", "b") == ["a", "n", "b"]
    assert route(t, "a", "b") == ["a", "m", "b"]
    with pytest.raises(NoRouteError):
        route(t2, "a", "m")
    assert route(t2.with_node_state("m", up=True), "a", "b") == ["a", "m", "b"]


def test_a_faulted_snapshot_never_answers_from_the_loaded_trees():
    loaded = _diamond()
    assert route(loaded, "a", "b") == ["a", "m", "b"]  # caches a's tree
    link_down = loaded.with_link_state("a", "m", up=False)
    node_down = loaded.with_node_state("m", up=False)
    both = link_down.with_node_state("m", up=False)
    # one fault of two cleared: still not the loaded state
    for t in (link_down, node_down, both, both.with_link_state("a", "m", up=True),
              both.with_node_state("m", up=True)):
        assert route(t, "a", "b") == ["a", "n", "b"]
        assert route_latency(t, "a", "b") == (Fraction(4), 2)
    assert route(loaded, "a", "b") == ["a", "m", "b"]


def _decimal_diamond(a_m_state: str = "up") -> Topology:
    """_diamond with decimal latencies: a-n-b (0.3 + 0.05) beats a-m-b
    (0.25 + 0.25); a-m starts in a_m_state."""
    return Topology.of(
        [NodeDescriptor(i, "edge", 4, 64) for i in "abmn"],
        [
            LinkDescriptor("a", "m", 0.25, 100, a_m_state),
            LinkDescriptor("m", "b", 0.25, 100),
            LinkDescriptor("a", "n", 0.3, 100), LinkDescriptor("n", "b", 0.05, 100),
        ],
    )


@pytest.mark.parametrize("a_m_state", ["up", "down"])
def test_a_snapshot_back_in_the_loaded_state_answers_like_a_fresh_topology(a_m_state):
    loaded = _decimal_diamond(a_m_state)
    ids = sorted(loaded.nodes)
    for a in ids:  # fill the loaded snapshot's trees first
        for b in ids:
            route(loaded, a, b)
    back = (
        loaded.with_node_state("n", up=False)
        .with_link_state("a", "m", up=a_m_state == "down")
        .with_node_state("m", up=False)
        .with_node_state("n", up=True)
        .with_link_state("a", "m", up=a_m_state == "up")
        .with_node_state("m", up=True)
    )
    fresh = _decimal_diamond(a_m_state)
    path = route(back, "a", "b")
    path.append("zz")  # the caller's list; later answers must not see it
    for a in ids:
        for b in ids:
            assert route(back, a, b) == route(fresh, a, b)
            assert route_latency(back, a, b) == route_latency(fresh, a, b)
    assert route(loaded, "a", "b") == route(fresh, "a", "b") == ["a", "n", "b"]
    assert route_latency(back, "a", "b") == (Fraction(7, 20), 2)


def test_mutating_a_returned_route_leaves_later_results_alone():
    t = _diamond()
    path = route(t, "a", "b")
    path.append("n")
    path[0] = "zz"
    assert route(t, "a", "b") == ["a", "m", "b"]
    assert route_latency(t, "a", "b") == (Fraction(2), 2)
    same = route(t, "a", "a")
    same.clear()
    assert route(t, "a", "a") == ["a"]
    nbrs = t.up_neighbors("a")
    nbrs.clear()
    assert [n for n, _ in t.up_neighbors("a")] == ["m", "n"]


def test_topology_construction_rules():
    n = [NodeDescriptor("a", "edge", 4, 64), NodeDescriptor("b", "edge", 4, 64)]
    with pytest.raises(ValueError):
        LinkDescriptor("a", "a", 1, 100)
    with pytest.raises(ValueError):
        Topology.of(n, [LinkDescriptor("a", "b", 1, 100), LinkDescriptor("b", "a", 2, 50)])
    with pytest.raises(ValueError):
        Topology.of(n[:1], [LinkDescriptor("a", "b", 1, 100)])


def test_link_normalizes_endpoint_order():
    link = LinkDescriptor("z", "a", 1, 100)
    assert link.ends == ("a", "z")


def test_node_and_link_state_flips():
    topo = Topology.of(
        [NodeDescriptor("a", "edge", 4, 64), NodeDescriptor("b", "edge", 4, 64)],
        [LinkDescriptor("a", "b", 1, 100)],
    )
    assert topo.is_link_up("a", "b")
    down = topo.with_link_state("a", "b", up=False)
    assert not down.is_link_up("a", "b")
    assert topo.is_link_up("a", "b")  # original untouched
    node_down = topo.with_node_state("a", up=False)
    assert not node_down.is_node_up("a")
    assert not node_down.is_link_up("a", "b")
    assert node_down.with_node_state("a", up=True).is_node_up("a")

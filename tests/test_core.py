"""Core type behavior: topics, publications, model splitting, topology."""

from __future__ import annotations

import dataclasses
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


@given(st.lists(SEG, min_size=1, max_size=4))
def test_topic_renders_its_string_once_and_keeps_its_dataclass_contract(segments):
    topic = Topic(tuple(segments))
    assert str(topic) == "/".join(segments)
    assert repr(topic) == f"Topic(segments={tuple(segments)!r})"
    assert [f.name for f in dataclasses.fields(Topic)] == ["segments"]
    # eq, hash and order read the segments only, never the rendered text
    twin = Topic(tuple(segments))
    object.__setattr__(twin, "_text", "elsewhere")
    assert twin == topic and hash(twin) == hash(topic)
    assert not twin < topic and not topic < twin
    longer = Topic(tuple(segments) + ("z",))
    object.__setattr__(longer, "_text", "")
    assert topic < longer and sorted([longer, twin]) == [twin, longer]
    with pytest.raises(dataclasses.FrozenInstanceError):
        topic.segments = ("x",)


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
    with pytest.raises(ValueError, match=r"^publication: seq must be >= 0$"):
        Publication(topic, "n", -1, Fraction(0), 1)
    with pytest.raises(ValueError, match=r"^publication: ts must be >= 0$"):
        Publication(topic, "n", 0, Fraction(-1), 1)
    with pytest.raises(ValueError, match=r"^publication: size_bytes must be >= 1$"):
        Publication(topic, "n", 0, Fraction(0), 0)
    with pytest.raises(
        ValueError,
        match=r"^publication: tag must be one of \('raw', 'derived'\)$",
    ):
        Publication(topic, "n", 0, Fraction(0), 1, tag="cooked")
    # the checks run in that order: each case breaks its rule and every later one
    for args, message in [
        ((-1, Fraction(-1), 0, "cooked"), "seq"),
        ((0, Fraction(-1), 0, "cooked"), "ts"),
        ((0, Fraction(0), 0, "cooked"), "size_bytes"),
    ]:
        seq, ts, size, tag = args
        with pytest.raises(ValueError, match=f"^publication: {message} must be >= "):
            Publication(topic, "n", seq, ts, size, tag=tag)


def test_publication_keeps_its_dataclass_contract():
    topic = Topic.parse("a/b")
    by_position = Publication(topic, "n", 3, "1/4", 10, [1, 2], "derived", "x")
    by_keyword = Publication(
        semantic_tag="x", tag="derived", payload=(1.0, 2.0), size_bytes=10,
        ts=Fraction(1, 4), seq=3, source="n", topic=topic,
    )
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == (
        "Publication(topic=Topic(segments=('a', 'b')), source='n', seq=3, "
        "ts=Fraction(1, 4), size_bytes=10, payload=(1.0, 2.0), tag='derived', "
        "semantic_tag='x')"
    )
    assert Publication.__match_args__ == tuple(
        f.name for f in dataclasses.fields(Publication)
    )
    defaults = Publication(topic, "n", 0, 0, 1)
    assert (defaults.payload, defaults.tag, defaults.semantic_tag) == ((1.0,), "raw", None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_position.seq = 4
    # replace builds through __init__, so it checks and converts again
    with pytest.raises(ValueError, match="size_bytes must be >= 1"):
        dataclasses.replace(by_position, size_bytes=0)
    moved = dataclasses.replace(by_position, ts=0.5, payload=[3])
    assert (moved.ts, moved.payload) == (Fraction(1, 2), (3.0,))
    assert type(moved.ts) is Fraction


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


# integers, decimals and thirds (unlike denominators), so equal-latency routes
# are common and the hop and path tie-breaks decide
LATENCIES = st.sampled_from((0, 1, 2, 0.1, 0.25, 0.5, 2.5, "1/3"))


def _flip_chain(draw, ids, ends, states, steps=4):
    """The topology of nodes ids and links ends, loaded with links in the
    drawn states, then a chain of up to steps node/link state flips on it.

    A step is either one flip or an excursion: overlapping node and link
    faults, then their undoing in a random order, which brings the chain back
    to the state the excursion left (the loaded one when it starts at the
    first snapshot).
    """
    nodes = [NodeDescriptor(i, "edge", Fraction(4), Fraction(256)) for i in ids]
    links = [
        LinkDescriptor(x, y, latency_ms=draw(LATENCIES), bandwidth_kb_per_ms=100,
                       state=draw(states))
        for x, y in ends
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

    for _ in range(draw(st.integers(0, steps))):
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


def _draw_links(draw, ids, min_size=0):
    """A drawn set of links among ids, as sorted end pairs."""
    n = len(ids)
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda ij: ij[0] < ij[1]),
        min_size=min_size, max_size=n * (n - 1) // 2,
    ))
    return [(ids[i], ids[j]) for i, j in sorted(pairs)]


@st.composite
def flaky_topology_chains(draw):
    """A random topology and a chain of node/link state flips on it.

    Links may start down, and the graph need not be connected.
    """
    ids = [f"n{i}" for i in range(draw(st.integers(2, 7)))]
    ends = _draw_links(draw, ids)
    return _flip_chain(draw, ids, ends, st.sampled_from(("up", "up", "down")))


@st.composite
def pendant_topology_chains(draw):
    """A core of 2-4 nodes, each with 1-3 leaves and up to two two-node
    pendant chains, and a chain of up to two steps of node/link state flips
    on it.

    Most nodes have one link, as devices do; a fault on a core node or link
    can leave a hub with one link or none, and a fault on a pendant chain's
    middle node or inner link leaves its tip isolated or its middle a leaf.
    The core need not be connected.
    """
    core = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    ids = list(core)
    ends = _draw_links(draw, core, min_size=1)
    for hub in core:
        for k in range(draw(st.integers(1, 3))):
            ids.append(f"{hub}l{k}")
            ends.append((hub, ids[-1]))
        for k in range(draw(st.integers(0, 2))):
            ids += [f"{hub}p{k}", f"{hub}q{k}"]
            ends += [(hub, ids[-2]), (ids[-2], ids[-1])]
    return _flip_chain(
        draw, ids, ends, st.sampled_from(("up", "up", "up", "down")), steps=2
    )


def _outcome(fn, t, a, b):
    try:
        return fn(t, a, b)
    except NoRouteError:
        return NoRouteError


def _assert_answers_like_the_reference(t, a, b):
    """Topology.shortest answers first, None exactly where the reference
    raises; route and route_latency then agree with the reference."""
    got = t.shortest(a, b)
    want = want_latency = _outcome(ref_route, t, a, b)
    if want is NoRouteError:
        assert got is None
    else:
        want_latency = ref_route_latency(t, a, b)
        lat, hops, path = got
        assert list(path) == want
        assert (Fraction(lat, t._scale), hops) == want_latency
    assert _outcome(route, t, a, b) == want
    assert _outcome(route_latency, t, a, b) == want_latency


def _assert_chain_answers_like_the_reference(chain, data):
    ends = sorted(chain[0].nodes) + ["ghost"]  # "ghost" is not a node
    pairs = [(a, b) for a in ends for b in ends]
    # every snapshot is queried in turn, so a later one starts from the
    # cached answers of the earlier ones still alive; each takes its queries
    # in a drawn order, so no answer can depend on which are cached yet
    for t in chain:
        for a, b in data.draw(st.permutations(pairs)):
            _assert_answers_like_the_reference(t, a, b)


@given(flaky_topology_chains(), st.data())
def test_route_matches_the_per_call_dijkstra_reference(chain, data):
    _assert_chain_answers_like_the_reference(chain, data)


@given(pendant_topology_chains(), st.data())
def test_route_on_pendant_heavy_topologies_matches_the_reference(chain, data):
    _assert_chain_answers_like_the_reference(chain, data)


def _star_pair_and_island() -> Topology:
    """Hub h with leaves l1, l2 and a two-hop tail h-m-t (t a leaf), h-k and
    k-m closing a cycle; p and q are joined only to each other; z has no
    link at all."""
    return Topology.of(
        [NodeDescriptor(i, "edge", 4, 64)
         for i in ("h", "k", "l1", "l2", "m", "p", "q", "t", "z")],
        [
            LinkDescriptor("h", "l1", 1, 100), LinkDescriptor("h", "l2", 2, 100),
            LinkDescriptor("h", "m", 1, 100), LinkDescriptor("m", "t", 1, 100),
            LinkDescriptor("h", "k", 1, 100), LinkDescriptor("k", "m", 1, 100),
            LinkDescriptor("p", "q", 3, 100),
        ],
    )


def _assert_every_pair_answers_like_the_reference(make):
    """Every ordered pair of make()'s nodes and an unknown one, asked in
    sorted and in reverse order of a fresh snapshot each."""
    ends = sorted(make().nodes) + ["ghost"]
    pairs = [(a, b) for a in ends for b in ends]
    for order in (pairs, pairs[::-1]):
        t = make()
        for a, b in order:
            _assert_answers_like_the_reference(t, a, b)


def test_two_leaves_joined_only_to_each_other_reach_each_other_and_nothing_else():
    t = _star_pair_and_island()
    assert route(t, "p", "q") == ["p", "q"]
    assert route_latency(t, "q", "p") == (Fraction(3), 1)
    for a, b in [("p", "h"), ("h", "q"), ("p", "l1"), ("l2", "q"), ("q", "z")]:
        assert t.shortest(a, b) is None
    _assert_every_pair_answers_like_the_reference(_star_pair_and_island)


def test_a_leaf_next_to_the_target_and_leaves_through_one_hub():
    t = _star_pair_and_island()
    assert route(t, "l1", "h") == ["l1", "h"]
    assert route(t, "h", "l2") == ["h", "l2"]
    assert route(t, "l1", "l2") == ["l1", "h", "l2"]
    assert route_latency(t, "l2", "l1") == (Fraction(3), 2)
    # h-m (1 ms) beats h-k-m (2 ms) on the way to the tail's leaf
    assert route(t, "l1", "t") == ["l1", "h", "m", "t"]
    assert route(t, "t", "l2") == ["t", "m", "h", "l2"]
    for a, b in [("l1", "h"), ("h", "l2"), ("l1", "l2"), ("l2", "l1"),
                 ("l1", "t"), ("t", "l2"), ("m", "t"), ("t", "k")]:
        _assert_answers_like_the_reference(t, a, b)


def test_an_isolated_up_node_reaches_only_itself():
    t = _star_pair_and_island()
    assert route(t, "z", "z") == ["z"]
    for other in ("h", "l1", "p"):
        assert t.shortest("z", other) is None
        assert t.shortest(other, "z") is None
        _assert_answers_like_the_reference(t, "z", other)
        _assert_answers_like_the_reference(t, other, "z")


def test_a_route_to_itself_needs_a_known_node_but_not_an_up_one():
    t = _star_pair_and_island().with_node_state("l1", up=False)
    assert t.shortest("l1", "l1") == (0, 0, ("l1",))
    assert route(t, "l1", "l1") == ["l1"]
    assert route_latency(t, "l1", "l1") == (Fraction(0), 0)
    assert t.shortest("ghost", "ghost") is None
    with pytest.raises(NoRouteError):
        route(t, "ghost", "ghost")
    for a, b in [("l1", "l1"), ("ghost", "ghost"), ("l1", "h"), ("h", "l1")]:
        _assert_answers_like_the_reference(t, a, b)


def _dual_homed() -> Topology:
    """d is dual-homed on hubs a (1 ms) and b (2 ms); a-b is 2 ms; a and b
    each have a leaf, la and lb."""
    return Topology.of(
        [NodeDescriptor(i, "edge", 4, 64) for i in ("a", "b", "d", "la", "lb")],
        [
            LinkDescriptor("a", "d", 1, 100), LinkDescriptor("b", "d", 2, 100),
            LinkDescriptor("a", "b", 2, 100),
            LinkDescriptor("a", "la", 1, 100), LinkDescriptor("b", "lb", 1, 100),
        ],
    )


@pytest.mark.parametrize("fault", ["link a-d", "node a"])
def test_a_dual_homed_node_made_a_leaf_by_a_fault_routes_through_its_other_hub(fault):
    def faulted():
        loaded = _dual_homed()
        for a, b in [("d", "la"), ("lb", "d"), ("d", "lb")]:
            route(loaded, a, b)  # answers cached on the loaded snapshot
        if fault == "node a":
            return loaded.with_node_state("a", up=False)
        return loaded.with_link_state("a", "d", up=False)

    loaded = _dual_homed()
    assert route(loaded, "lb", "d") == ["lb", "b", "d"]
    assert route(loaded, "la", "lb") == ["la", "a", "b", "lb"]
    t = faulted()
    assert route(t, "lb", "d") == ["lb", "b", "d"]
    assert route(t, "d", "lb") == ["d", "b", "lb"]
    if fault == "node a":
        assert t.shortest("d", "la") is None
    else:
        assert route(t, "d", "la") == ["d", "b", "a", "la"]
        assert route_latency(t, "la", "d") == (Fraction(5), 3)
    _assert_every_pair_answers_like_the_reference(faulted)


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
    assert route(t, "a", "b") == ["a", "m", "b"]  # cached on t
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
    assert route(loaded, "a", "b") == ["a", "m", "b"]  # cached on loaded
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
    for a in ids:  # fill the loaded snapshot's answers first
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

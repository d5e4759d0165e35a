"""Domain types: topics, publications, models, pipelines, topology, routing."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Union

from .errors import NoRouteError, SplitArityError

Ratio = Union[int, float, str, Fraction]

TIERS = ("device", "edge", "cloud")
TASK_TAGS = ("text", "aural", "visual", "telemetry")
TAGS = ("raw", "derived")

# first topic segment of model-update submissions ("_updates/<model_id>")
UPDATE_TOPIC_ROOT = "_updates"


def as_ratio(x: Ratio) -> Fraction:
    """Exact rational from a number. Floats go through their shortest decimal
    literal, so as_ratio(0.1) == Fraction(1, 10), not the binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a ratio")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str)):
        return Fraction(str(x))
    raise TypeError(f"cannot convert {type(x).__name__} to a ratio")


def scaled_size(input_total: int, selectivity: Fraction) -> int:
    """Size law shared by every operator: max(1, ceil(total * selectivity)),
    in ints."""
    return max(1, -(-input_total * selectivity.numerator // selectivity.denominator))


# ---------------------------------------------------------------------------
# Topics and filters


@dataclass(frozen=True, order=True)
class Topic:
    """A slash-rendered channel name, e.g. Topic.parse("net/cell1/kpi")."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("topic: needs at least one segment")
        for seg in self.segments:
            if not seg or any(c in seg for c in "/+#"):
                raise ValueError(f"topic: bad segment {seg!r}")
        # rendered once: a run shares one Topic per topic and renders it per
        # stream key. Not a field, so eq, hash, order and repr ignore it
        object.__setattr__(self, "_text", "/".join(self.segments))

    @classmethod
    def parse(cls, text: str) -> Topic:
        return cls(tuple(text.split("/")))

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True, order=True)
class TopicFilter:
    """Topic pattern: "+" matches one segment, a trailing "#" matches any tail."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("filter: needs at least one segment")
        for i, seg in enumerate(self.segments):
            if seg == "#":
                if i != len(self.segments) - 1:
                    raise ValueError("filter: '#' only allowed as last segment")
            elif seg != "+":
                if not seg or any(c in seg for c in "/+#"):
                    raise ValueError(f"filter: bad segment {seg!r}")

    @classmethod
    def parse(cls, text: str) -> TopicFilter:
        return cls(tuple(text.split("/")))

    def __str__(self) -> str:
        return "/".join(self.segments)

    def matches(self, topic: Topic) -> bool:
        return match_filter(self, topic)


MATCH_ALL = TopicFilter(("#",))


def match_filter(filter: TopicFilter, topic: Topic) -> bool:
    """True iff topic matches filter under "+"/"#" semantics."""
    fs, ts = filter.segments, topic.segments
    for i, seg in enumerate(fs):
        if seg == "#":
            return True
        if i >= len(ts):
            return False
        if seg != "+" and seg != ts[i]:
            return False
    return len(fs) == len(ts)


class _TrieNode:
    __slots__ = ("children", "topic")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.topic: str | None = None  # set when a topic ends here


class TopicIndex:
    """A set of topics looked up by filter, with the same answers as
    match_filter over every member.

    A segment trie, as in an MQTT broker's subscription tree (MQTT v5 §4.7):
    a lookup follows one child per exact segment, every child for "+", and
    collects the whole subtree, this node included, for a trailing "#". A
    lookup costs the nodes it visits, not the size of the set, so answers
    are not cached.
    """

    def __init__(self, topics: Iterable[Topic] = ()) -> None:
        self._root = _TrieNode()
        for topic in topics:
            self.add(topic)

    def add(self, topic: Topic) -> None:
        node = self._root
        for seg in topic.segments:
            nxt = node.children.get(seg)
            if nxt is None:
                nxt = node.children[seg] = _TrieNode()
            node = nxt
        node.topic = str(topic)

    def matching(self, filter: TopicFilter) -> list[str]:
        """The member topics filter matches, as sorted strings."""
        found: list[str] = []
        level = [self._root]
        for seg in filter.segments:
            if seg == "#":
                while level:
                    node = level.pop()
                    if node.topic is not None:
                        found.append(node.topic)
                    level.extend(node.children.values())
                break
            if seg == "+":
                level = [c for node in level for c in node.children.values()]
            else:
                level = [node.children[seg] for node in level if seg in node.children]
        found.extend(node.topic for node in level if node.topic is not None)
        return sorted(found)


def inference_inputs(bound: TopicIndex, filter: TopicFilter) -> list[str]:
    """The bound topics that feed an inference subscription with filter,
    sorted: every match but a model-update submission."""
    updates = UPDATE_TOPIC_ROOT + "/"
    return [topic for topic in bound.matching(filter) if not topic.startswith(updates)]


# ---------------------------------------------------------------------------
# Publications


@dataclass(frozen=True, init=False, slots=True)
class Publication:
    """A sized, sequence-numbered message on a topic.

    ts is simulated milliseconds (exact rational); seq is per-(source, topic)
    and strictly increasing at the origin; tag is "raw" only before any stage
    has touched the payload.
    """

    topic: Topic
    source: str
    seq: int
    ts: Fraction
    size_bytes: int
    payload: tuple[float, ...] = (1.0,)
    tag: str = "raw"
    semantic_tag: str | None = None

    def __init__(
        self,
        topic: Topic,
        source: str,
        seq: int,
        ts: Ratio,
        size_bytes: int,
        payload: Iterable[float] = (1.0,),
        tag: str = "raw",
        semantic_tag: str | None = None,
    ) -> None:
        # the loop builds one per event: check, then store each field through
        # its slot's own setter (_put_*), which the frozen __setattr__ does not
        # block, rather than a lookup through object.__setattr__. Slots keep a
        # publication smaller than an instance dict would. A derived
        # publication passes its source's checked values on, so each check
        # costs little when it holds: no as_ratio for a Fraction, and the sign
        # from the numerator (a Fraction's denominator is positive)
        if type(ts) is not Fraction:
            ts = as_ratio(ts)
        payload = tuple(map(float, payload))
        if seq < 0:
            raise ValueError("publication: seq must be >= 0")
        if ts.numerator < 0:
            raise ValueError("publication: ts must be >= 0")
        if size_bytes < 1:
            raise ValueError("publication: size_bytes must be >= 1")
        if tag not in TAGS:
            raise ValueError(f"publication: tag must be one of {TAGS}")
        _put_topic(self, topic)
        _put_source(self, source)
        _put_seq(self, seq)
        _put_ts(self, ts)
        _put_size_bytes(self, size_bytes)
        _put_payload(self, payload)
        _put_tag(self, tag)
        _put_semantic_tag(self, semantic_tag)

    def sort_key(self) -> tuple:
        """Canonical (topic, source, seq) ordering used before combining."""
        return (self.topic, self.source, self.seq)


(
    _put_topic, _put_source, _put_seq, _put_ts, _put_size_bytes, _put_payload,
    _put_tag, _put_semantic_tag,
) = (Publication.__dict__[f.name].__set__ for f in fields(Publication))


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class LayerSpec:
    compute_cost: Fraction
    mem_mb: Fraction
    selectivity: Fraction
    needs_accelerator: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute_cost", as_ratio(self.compute_cost))
        object.__setattr__(self, "mem_mb", as_ratio(self.mem_mb))
        object.__setattr__(self, "selectivity", as_ratio(self.selectivity))
        if self.compute_cost < 0:
            raise ValueError("layer: compute_cost must be >= 0")
        if self.mem_mb < 0:
            raise ValueError("layer: mem_mb must be >= 0")
        if self.selectivity <= 0:
            raise ValueError("layer: selectivity must be > 0")


@dataclass(frozen=True)
class ModelDescriptor:
    model_id: str
    version: int
    task_tag: str
    layers: tuple[LayerSpec, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if self.version < 0:
            raise ValueError("model: version must be >= 0")
        if self.task_tag not in TASK_TAGS:
            raise ValueError(f"model: task_tag must be one of {TASK_TAGS}")
        if not self.layers:
            raise ValueError("model: needs at least one layer")


# ---------------------------------------------------------------------------
# Stages and pipelines


@dataclass(frozen=True)
class Pin:
    """Placement constraint for a stage."""

    kind: str  # "unpinned" | "publisher" | "subscriber" | "node"
    node_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("unpinned", "publisher", "subscriber", "node"):
            raise ValueError(f"pin: bad kind {self.kind!r}")
        if (self.kind == "node") != (self.node_id is not None):
            raise ValueError("pin: node_id exactly when kind == 'node'")

    @classmethod
    def unpinned(cls) -> Pin:
        return cls("unpinned")

    @classmethod
    def at_publisher(cls) -> Pin:
        return cls("publisher")

    @classmethod
    def at_subscriber(cls) -> Pin:
        return cls("subscriber")

    @classmethod
    def at_node(cls, node_id: str) -> Pin:
        return cls("node", node_id)

    @property
    def is_pinned(self) -> bool:
        return self.kind != "unpinned"


@dataclass(frozen=True)
class Barrier:
    """Emit once every expected input has a pending publication."""

    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise ValueError("barrier: inputs must be nonempty")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("barrier: duplicate input ids")


@dataclass(frozen=True)
class CountWindow:
    """Emit on every n-th buffered publication."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("count window: n must be >= 1")


@dataclass(frozen=True)
class TimeWindow:
    """Open at the first buffered publication, emit delta_ms later."""

    delta_ms: int

    def __post_init__(self) -> None:
        if self.delta_ms < 1:
            raise ValueError("time window: delta_ms must be >= 1")


TriggerPolicy = Union[Barrier, CountWindow, TimeWindow]

FnArgs = tuple[tuple[str, Union[int, float, str]], ...]


def fn_args(**kwargs: Union[int, float, str]) -> FnArgs:
    """Canonical (sorted) argument tuple for stage function kinds."""
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class Mapping:
    """One-in one-out stage applying a catalog function."""

    fn_id: str
    args: FnArgs = ()


@dataclass(frozen=True)
class Funnel:
    """Many-in one-out stage combining publications under a trigger policy."""

    fn_id: str
    trigger: TriggerPolicy
    args: FnArgs = ()


@dataclass(frozen=True)
class Filter:
    """Stage passing or dropping a publication by a catalog predicate."""

    predicate_id: str
    args: FnArgs = ()


StageKind = Union[Mapping, Funnel, Filter]


@dataclass(frozen=True)
class StageSpec:
    stage_id: str
    kind: StageKind
    compute_cost: Fraction
    mem_mb: Fraction
    selectivity: Fraction
    needs_accelerator: bool = False
    pin: Pin = field(default_factory=Pin.unpinned)

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute_cost", as_ratio(self.compute_cost))
        object.__setattr__(self, "mem_mb", as_ratio(self.mem_mb))
        object.__setattr__(self, "selectivity", as_ratio(self.selectivity))
        if self.compute_cost < 0:
            raise ValueError(f"stage {self.stage_id}: compute_cost must be >= 0")
        if self.mem_mb < 0:
            raise ValueError(f"stage {self.stage_id}: mem_mb must be >= 0")
        if self.selectivity <= 0:
            raise ValueError(f"stage {self.stage_id}: selectivity must be > 0")

    @cached_property
    def _repr(self) -> str:
        """repr(self), built once per stage object: every instance that runs
        the stage hashes it into an exec id."""
        return repr(self)


@dataclass(frozen=True, eq=False)
class PipelineSpec:
    """A DAG of stages with topic-filter bindings on its entry stages.

    The constructor only normalizes; structural rules are checked by
    validate_pipeline so that invalid pipelines can be built and inspected.
    """

    pipeline_id: str
    stages: tuple[StageSpec, ...]
    edges: tuple[tuple[str, str], ...]
    source_bindings: dict[str, TopicFilter]
    sink: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        object.__setattr__(self, "source_bindings", dict(self.source_bindings))
        # lookups built once; private attributes, so repr and eq ignore them
        by_id: dict[str, StageSpec] = {}
        for s in self.stages:
            by_id.setdefault(s.stage_id, s)
        preds: dict[str, list[str]] = {}
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            preds.setdefault(b, []).append(a)
            succs.setdefault(a, []).append(b)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_succs", succs)
        with_in = {b for _, b in self.edges}
        object.__setattr__(self, "_entries", tuple(
            s.stage_id for s in self.stages if s.stage_id not in with_in
        ))
        # Kahn order, short of some stages on a cycle; topo_order raises then
        object.__setattr__(self, "_order", tuple(self._kahn()))

    def stage(self, stage_id: str) -> StageSpec:
        return self._by_id[stage_id]

    def stage_ids(self) -> list[str]:
        return [s.stage_id for s in self.stages]

    def preds(self, stage_id: str) -> list[str]:
        return list(self._preds.get(stage_id, ()))

    def succs(self, stage_id: str) -> list[str]:
        return list(self._succs.get(stage_id, ()))

    def entry_ids(self) -> list[str]:
        return list(self._entries)

    def sink_ids(self) -> list[str]:
        with_out = {a for a, _ in self.edges}
        return [s.stage_id for s in self.stages if s.stage_id not in with_out]

    def topo_order(self) -> list[str]:
        """Kahn order; stable by declaration order. Raises on a cycle."""
        if len(self._order) != len(self.stages):
            raise ValueError(f"pipeline {self.pipeline_id}: cycle")
        return list(self._order)

    def _kahn(self) -> list[str]:
        indeg = {s.stage_id: 0 for s in self.stages}
        for a, b in self.edges:
            if b in indeg and a in indeg:
                indeg[b] += 1
        ready = [sid for sid in self.stage_ids() if indeg[sid] == 0]
        order: list[str] = []
        while ready:
            sid = ready.pop(0)
            order.append(sid)
            for nxt in self._succs.get(sid, ()):
                if nxt in indeg:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        ready.append(nxt)
        return order


@dataclass(frozen=True, order=True)
class Violation:
    """One broken pipeline rule, naming the offending stage or edge."""

    rule: str
    subject: str
    detail: str = ""


def validate_pipeline(p: PipelineSpec) -> list[Violation]:
    """Empty list iff all structural pipeline rules hold."""
    out: list[Violation] = []
    ids = p.stage_ids()
    known = set(ids)

    if not ids:
        return [Violation("EmptyPipeline", p.pipeline_id)]
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            out.append(Violation("DuplicateStage", sid))
        seen.add(sid)
    for a, b in p.edges:
        for end in (a, b):
            if end not in known:
                out.append(Violation("UnknownStage", end, f"edge {a}->{b}"))

    order = p._order
    if len(order) != len(known):
        stuck = sorted(known - set(order))
        out.append(Violation("CycleDetected", ",".join(stuck)))
        return sorted(set(out))

    sinks = p.sink_ids()
    if len(sinks) > 1:
        out.append(Violation("MultipleSinks", ",".join(sorted(sinks))))
    elif not sinks:
        out.append(Violation("NoSink", p.pipeline_id))
    elif p.sink != sinks[0]:
        out.append(Violation("SinkMismatch", p.sink, f"actual sink {sinks[0]}"))

    entries = set(p.entry_ids())
    for sid in sorted(p.source_bindings):
        if sid not in known:
            out.append(Violation("UnknownStage", sid, "source binding"))
        elif sid not in entries:
            out.append(Violation("BindingNotEntry", sid))
    for sid in sorted(entries):
        if sid not in p.source_bindings:
            out.append(Violation("UnboundEntry", sid))

    reach = set()
    frontier = [sid for sid in order if sid in entries]
    while frontier:
        sid = frontier.pop()
        if sid in reach:
            continue
        reach.add(sid)
        frontier.extend(p.succs(sid))
    for sid in order:
        if sid not in reach:
            out.append(Violation("Unreachable", sid))

    for s in p.stages:
        if isinstance(s.kind, Funnel):
            preds = p.preds(s.stage_id)
            if not preds:
                out.append(Violation("FunnelNoInput", s.stage_id))
            elif isinstance(s.kind.trigger, Barrier):
                if set(s.kind.trigger.inputs) != set(preds):
                    out.append(
                        Violation(
                            "BarrierArity",
                            s.stage_id,
                            f"inputs {sorted(s.kind.trigger.inputs)}"
                            f" vs preds {sorted(preds)}",
                        )
                    )
    return sorted(set(out))


def split_model(model: ModelDescriptor, k: int, privacy_split: bool) -> PipelineSpec:
    """Chain pipeline of k stages over contiguous, count-balanced layer groups.

    Earlier groups take the remainder. Per stage: costs and memory are sums,
    selectivity is the product, accelerator need is the disjunction. With
    privacy_split the first and last stages (the single stage when k == 1)
    are pinned at the publisher.
    """
    n = len(model.layers)
    if not 1 <= k <= n:
        raise SplitArityError(f"k={k} outside 1..{n} for model {model.model_id}")
    base, rem = divmod(n, k)
    sizes = [base + 1 if i < rem else base for i in range(k)]
    stages: list[StageSpec] = []
    at = 0
    for i, size in enumerate(sizes, start=1):
        group = model.layers[at : at + size]
        at += size
        sel = Fraction(1)
        for layer in group:
            sel *= layer.selectivity
        pinned = privacy_split and (i == 1 or i == k)
        stages.append(
            StageSpec(
                stage_id=f"{model.model_id}-v{model.version}-s{i}",
                kind=Mapping("identity"),
                compute_cost=sum((l.compute_cost for l in group), Fraction(0)),
                mem_mb=sum((l.mem_mb for l in group), Fraction(0)),
                selectivity=sel,
                needs_accelerator=any(l.needs_accelerator for l in group),
                pin=Pin.at_publisher() if pinned else Pin.unpinned(),
            )
        )
    edges = tuple(
        (stages[i].stage_id, stages[i + 1].stage_id) for i in range(k - 1)
    )
    return PipelineSpec(
        pipeline_id=f"{model.model_id}-v{model.version}-k{k}",
        stages=tuple(stages),
        edges=edges,
        source_bindings={stages[0].stage_id: MATCH_ALL},
        sink=stages[-1].stage_id,
    )


# ---------------------------------------------------------------------------
# Topology


@dataclass(frozen=True)
class NodeDescriptor:
    node_id: str
    tier: str
    cpu_capacity: Fraction  # compute units per ms
    mem_mb: Fraction
    has_accelerator: bool = False
    domain_id: str = "d0"

    def __post_init__(self) -> None:
        object.__setattr__(self, "cpu_capacity", as_ratio(self.cpu_capacity))
        object.__setattr__(self, "mem_mb", as_ratio(self.mem_mb))
        if self.tier not in TIERS:
            raise ValueError(f"node {self.node_id}: tier must be one of {TIERS}")
        if self.cpu_capacity <= 0:
            raise ValueError(f"node {self.node_id}: cpu_capacity must be > 0")
        if self.mem_mb < 0:
            raise ValueError(f"node {self.node_id}: mem_mb must be >= 0")


@dataclass(frozen=True)
class LinkDescriptor:
    """Undirected link; endpoints are stored sorted."""

    a: str
    b: str
    latency_ms: Fraction
    bandwidth_kb_per_ms: Fraction
    state: str = "up"

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"link: self-loop at {self.a}")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        object.__setattr__(self, "latency_ms", as_ratio(self.latency_ms))
        object.__setattr__(
            self, "bandwidth_kb_per_ms", as_ratio(self.bandwidth_kb_per_ms)
        )
        if self.latency_ms < 0:
            raise ValueError(f"link {self.a}-{self.b}: latency_ms must be >= 0")
        if self.bandwidth_kb_per_ms <= 0:
            raise ValueError(
                f"link {self.a}-{self.b}: bandwidth_kb_per_ms must be > 0"
            )
        if self.state not in ("up", "down"):
            raise ValueError(f"link {self.a}-{self.b}: bad state {self.state!r}")

    @property
    def ends(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Topology:
    """The continuum graph. Node liveness lives here, not on NodeDescriptor."""

    nodes: dict[str, NodeDescriptor]
    links: dict[tuple[str, str], LinkDescriptor]
    down_nodes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "down_nodes", frozenset(self.down_nodes))
        for key, link in self.links.items():
            if key != link.ends:
                raise ValueError(f"topology: link keyed {key} but ends {link.ends}")
            for end in link.ends:
                if end not in self.nodes:
                    raise ValueError(f"topology: link endpoint {end!r} unknown")
        for nid, node in self.nodes.items():
            if nid != node.node_id:
                raise ValueError(f"topology: node keyed {nid!r} vs {node.node_id!r}")
        # routing index, built on first use; a snapshot never changes, so
        # none of it needs invalidating. _root: the snapshot this one derives
        # from. _scale, the LCM of the link latency denominators, makes every
        # route latency an int, that of a route staying on its node included
        scale = lcm(*(l.latency_ms.denominator for l in self.links.values()))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_adjacency", None)
        object.__setattr__(self, "_routes", {})
        object.__setattr__(self, "_searches", {})
        object.__setattr__(self, "_root", None)

    @classmethod
    def of(cls, nodes: Iterable[NodeDescriptor],
           links: Iterable[LinkDescriptor]) -> Topology:
        node_map = {n.node_id: n for n in nodes}
        link_map: dict[tuple[str, str], LinkDescriptor] = {}
        for l in links:
            if l.ends in link_map:
                raise ValueError(f"topology: duplicate link {l.ends}")
            link_map[l.ends] = l
        return cls(node_map, link_map)

    def node(self, node_id: str) -> NodeDescriptor:
        return self.nodes[node_id]

    def is_node_up(self, node_id: str) -> bool:
        return node_id in self.nodes and node_id not in self.down_nodes

    def link_between(self, a: str, b: str) -> LinkDescriptor | None:
        return self.links.get((a, b) if a < b else (b, a))

    def is_link_up(self, a: str, b: str) -> bool:
        link = self.link_between(a, b)
        return (
            link is not None
            and link.state == "up"
            and self.is_node_up(a)
            and self.is_node_up(b)
        )

    def up_neighbors(self, node_id: str) -> list[tuple[str, LinkDescriptor]]:
        return [(nb, link) for nb, link, _ in self._up_adjacency().get(node_id, ())]

    def _up_adjacency(self) -> dict[str, tuple[tuple[str, LinkDescriptor, int], ...]]:
        """node -> (neighbour, link, latency * _scale) over up links to up
        neighbours, by id."""
        if self._adjacency is None:
            scale = self._scale
            adj: dict[str, list[tuple[str, LinkDescriptor, int]]] = {
                n: [] for n in self.nodes
            }
            for link in self.links.values():
                if link.state != "up":
                    continue
                w = link.latency_ms.numerator * (scale // link.latency_ms.denominator)
                if self.is_node_up(link.b):
                    adj[link.a].append((link.b, link, w))
                if self.is_node_up(link.a):
                    adj[link.b].append((link.a, link, w))
            object.__setattr__(self, "_adjacency", {
                n: tuple(sorted(edges, key=lambda edge: edge[0]))
                for n, edges in adj.items()
            })
        return self._adjacency

    def shortest(self, a: str, b: str) -> tuple[int, int, tuple[str, ...]] | None:
        """(latency * _scale, hops, path) of route(self, a, b), or None when
        there is no route; route and route_latency raise NoRouteError then.

        Each answer is kept per snapshot, so a repeated query is one lookup.
        A leaf, a node with one up neighbour, is never searched from or
        through: every route from or to it takes that one link, which shifts
        latency and hops by a constant and keeps the path order, so its
        answer is its neighbour's plus one hop. Routes between other nodes
        come from a Dijkstra per source over the non-leaf core that stops
        once the target is settled and resumes from the same heap for a later
        target, so it settles nodes in the order a full run would. Heap keys
        (latency * _scale, hops, path) are unique ints and tuples, so each
        node's first pop is its minimum under the (latency, hops, path) order
        route documents; the popped key is the answer.
        """
        try:
            return self._routes[a, b]
        except KeyError:
            pass
        got = self._routes[a, b] = self._solve(a, b)
        return got

    def _solve(self, a: str, b: str) -> tuple[int, int, tuple[str, ...]] | None:
        if a not in self.nodes or b not in self.nodes:
            return None
        if a == b:
            return (0, 0, (a,))
        if a in self.down_nodes or b in self.down_nodes:
            return None
        adj = self._up_adjacency()
        if len(adj[a]) == 1:
            hub, _, w = adj[a][0]
            if hub == b:
                return (w, 1, (a, b))
            # two leaves joined only to each other reach nothing else
            got = None if len(adj[hub]) == 1 else self.shortest(hub, b)
            return got and (got[0] + w, got[1] + 1, (a,) + got[2])
        if len(adj[b]) == 1:
            hub, _, w = adj[b][0]
            if hub == a:
                return (w, 1, (a, b))
            got = None if len(adj[hub]) == 1 else self.shortest(a, hub)
            return got and (got[0] + w, got[1] + 1, got[2] + (b,))
        if not adj[b]:  # an isolated target: no need to exhaust a's search
            return None
        search = self._searches.get(a)
        if search is None:
            search = self._searches[a] = ({}, [(0, 0, (a,))])
        settled, heap = search
        while b not in settled and heap:
            lat, hops, path = entry = heapq.heappop(heap)
            here = path[-1]
            if here in settled:
                continue
            settled[here] = entry
            for nxt, _, w in adj[here]:
                if nxt not in settled and len(adj[nxt]) != 1:
                    heapq.heappush(heap, (lat + w, hops + 1, path + (nxt,)))
        return settled.get(b)

    def with_node_state(self, node_id: str, up: bool) -> Topology:
        if node_id not in self.nodes:
            raise KeyError(node_id)
        down = set(self.down_nodes)
        if up:
            down.discard(node_id)
        else:
            down.add(node_id)
        return self._derive(self.links, frozenset(down))

    def with_link_state(self, a: str, b: str, up: bool) -> Topology:
        link = self.link_between(a, b)
        if link is None:
            raise KeyError((a, b))
        links = dict(self.links)
        links[link.ends] = replace(link, state="up" if up else "down")
        return self._derive(links, self.down_nodes)

    def _derive(self, links: dict[tuple[str, str], LinkDescriptor],
                down: frozenset[str]) -> Topology:
        """The snapshot with these links and down nodes: its root itself, and
        so the root's routes, when back in the root's state."""
        root = self._root or self
        if down == root.down_nodes and links == root.links:
            return root
        t = Topology(self.nodes, links, down)
        object.__setattr__(t, "_root", root)
        return t

    def domains(self) -> list[str]:
        return sorted({n.domain_id for n in self.nodes.values()})


def route(t: Topology, a: str, b: str) -> list[str]:
    """Minimum-latency up path from a to b, as a fresh list.

    Ties go to fewer hops, then the lexicographically smallest node sequence.
    route(t, a, a) == [a]. Raises NoRouteError when there is none. Results
    come from Topology.shortest: one lookup per repeated (snapshot, a, b);
    a new one extends a resumable Dijkstra over the snapshot's non-leaf
    nodes, once per (snapshot, source), by the nodes it still has to settle.
    """
    got = t.shortest(a, b)
    if got is None:
        raise NoRouteError(a, b)
    return list(got[2])


def route_latency(t: Topology, a: str, b: str) -> tuple[Fraction, int]:
    """(total latency, hop count) of route(t, a, b); raises NoRouteError."""
    got = t.shortest(a, b)
    if got is None:
        raise NoRouteError(a, b)
    return Fraction(got[0], t._scale), got[1]


# ---------------------------------------------------------------------------
# Subscriptions


@dataclass(frozen=True)
class DataSub:
    """Deliver raw publications matching a filter."""

    filter: TopicFilter


@dataclass(frozen=True)
class InferenceSub:
    """Deliver the output of a model pipeline applied to matching publications.

    combine_fn, trigger and prefilter only matter when the filter matches
    several bound topics (or a windowed trigger is requested): the entries are
    then joined by a funnel before the split-model chain.
    """

    model_id: str
    filter: TopicFilter
    privacy_split: bool = False
    k: int = 1
    combine_fn: str = "concat"
    trigger: TriggerPolicy | None = None
    prefilter: str | None = None
    prefilter_args: FnArgs = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("inference: k must be >= 1")


@dataclass(frozen=True)
class ModelUpdateSub:
    """Deliver aggregated model updates from min_version on."""

    model_id: str
    min_version: int = 0

    def __post_init__(self) -> None:
        if self.min_version < 0:
            raise ValueError("model update: min_version must be >= 0")


SubscriptionKind = Union[DataSub, InferenceSub, ModelUpdateSub]


@dataclass(frozen=True)
class Subscription:
    sub_id: str
    subscriber: str
    kind: SubscriptionKind

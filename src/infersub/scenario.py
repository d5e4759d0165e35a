"""Scenario files: JSON schema, parsing, and cross-validation."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NoReturn, TypeVar

from .core import (
    CountWindow,
    DataSub,
    InferenceSub,
    LayerSpec,
    LinkDescriptor,
    ModelDescriptor,
    ModelUpdateSub,
    NodeDescriptor,
    Subscription,
    TimeWindow,
    Topic,
    TopicFilter,
    TopicIndex,
    Topology,
    TriggerPolicy,
    UPDATE_TOPIC_ROOT,
    fn_args,
    inference_inputs,
)
from .errors import ParseError, ValidationError
from .operators import COMBINE_FNS, PREDICATES
from .placement import Objective, WorkloadEntry, WorkloadSpec

TOP_KEYS = (
    "topology", "models", "bindings", "subscriptions",
    "workload", "faults", "objective", "sim",
)
# the path of a rule broken by the document as a whole; its keys are the
# paths of their own values
ROOT = "top level"

FAULT_KINDS = ("node_down", "node_up", "link_down", "link_up")

T = TypeVar("T")


@dataclass(frozen=True)
class ScenarioModel:
    model: ModelDescriptor
    domain_id: str
    trainers: tuple[str, ...] = ()
    artifact_kb: int | None = None


@dataclass(frozen=True)
class PeerSpec:
    domains: tuple[str, str]
    link: tuple[str, str]


@dataclass(frozen=True)
class FaultEvent:
    at_ms: Fraction
    kind: str
    node: str | None = None
    link: tuple[str, str] | None = None


@dataclass(frozen=True)
class SimParams:
    duration_ms: int
    seed: int
    heartbeat_ms: int = 50
    heartbeat_misses: int = 3


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    brokers: dict[str, str]
    peers: tuple[PeerSpec, ...]
    models: tuple[ScenarioModel, ...]
    bindings: dict[str, str]
    subscriptions: tuple[Subscription, ...]
    workload: WorkloadSpec
    faults: tuple[FaultEvent, ...]
    objective: Objective
    sim: SimParams


# -- field readers ---------------------------------------------------------


def _fail(path: str, rule: str) -> NoReturn:
    raise ValidationError(path, rule)


def _make(path: str, build: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """build(*args, **kwargs), with the ValueError of the built type's own
    checks reported at path: those rules live in the domain types alone."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _dict(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    return v


def _list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, "expected an array")
    return v


def _str(v: Any, path: str) -> str:
    if not isinstance(v, str) or not v:
        _fail(path, "expected a nonempty string")
    return v


def _int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, "expected an integer")
    return v


def _num(v: Any, path: str) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        _fail(path, "expected a number")
    return Fraction(v)


def _float(v: Any, path: str) -> float:
    x = _num(v, path)
    try:
        f = float(x)
    except OverflowError:
        _fail(path, "number too large for a float")
    if x and not f:  # nonzero, but rounds to 0.0
        _fail(path, "number too small for a float")
    return f


def _bool(v: Any, path: str) -> bool:
    if not isinstance(v, bool):
        _fail(path, "expected a boolean")
    return v


def _keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    for k in required:
        if k not in obj:
            _fail(path or ROOT, f"missing key {k!r}")
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}" if path else k, "unexpected key")


def _topic(v: Any, path: str) -> Topic:
    return _make(path, Topic.parse, _str(v, path))


def _filter(v: Any, path: str) -> TopicFilter:
    return _make(path, TopicFilter.parse, _str(v, path))


# -- section loaders -------------------------------------------------------


def _load_topology(obj: Any) -> tuple[Topology, dict[str, str], tuple[PeerSpec, ...]]:
    top = _dict(obj, "topology")
    _keys(top, "topology", ("nodes", "links", "brokers"), ("peers",))
    nodes: list[NodeDescriptor] = []
    ids: set[str] = set()
    for i, raw in enumerate(_list(top["nodes"], "topology.nodes")):
        path = f"topology.nodes[{i}]"
        nd = _dict(raw, path)
        _keys(nd, path, ("node_id", "tier", "cpu_capacity", "mem_mb"),
              ("has_accelerator", "domain_id"))
        nid = _str(nd["node_id"], f"{path}.node_id")
        if nid in ids:
            _fail(f"{path}.node_id", f"duplicate node {nid!r}")
        ids.add(nid)
        nodes.append(_make(
            path, NodeDescriptor,
            node_id=nid,
            tier=_str(nd["tier"], f"{path}.tier"),
            cpu_capacity=_num(nd["cpu_capacity"], f"{path}.cpu_capacity"),
            mem_mb=_num(nd["mem_mb"], f"{path}.mem_mb"),
            has_accelerator=_bool(nd.get("has_accelerator", False), f"{path}.has_accelerator"),
            domain_id=_str(nd.get("domain_id", "d0"), f"{path}.domain_id"),
        ))
    if not nodes:
        _fail("topology.nodes", "at least one node required")

    links: list[LinkDescriptor] = []
    pairs: set[tuple[str, str]] = set()
    for i, raw in enumerate(_list(top["links"], "topology.links")):
        path = f"topology.links[{i}]"
        ld = _dict(raw, path)
        _keys(ld, path, ("a", "b", "latency_ms", "bandwidth_kb_per_ms"))
        a = _str(ld["a"], f"{path}.a")
        b = _str(ld["b"], f"{path}.b")
        for end, key in ((a, "a"), (b, "b")):
            if end not in ids:
                _fail(f"{path}.{key}", f"unknown node {end!r}")
        pair = (min(a, b), max(a, b))
        if pair in pairs:
            _fail(path, f"duplicate link {pair}")
        pairs.add(pair)
        links.append(_make(
            path, LinkDescriptor, a, b,
            _num(ld["latency_ms"], f"{path}.latency_ms"),
            _num(ld["bandwidth_kb_per_ms"], f"{path}.bandwidth_kb_per_ms"),
        ))

    topo = Topology.of(nodes, links)

    brokers_raw = _dict(top["brokers"], "topology.brokers")
    brokers: dict[str, str] = {}
    for dom, bnode in brokers_raw.items():
        path = f"topology.brokers.{dom}"
        bn = _str(bnode, path)
        if bn not in ids:
            _fail(path, f"unknown node {bn!r}")
        if topo.node(bn).domain_id != dom:
            _fail(path, f"broker node {bn!r} is not in domain {dom!r}")
        brokers[dom] = bn
    for dom in sorted(topo.domains()):
        if dom not in brokers:
            _fail("topology.brokers", f"domain {dom!r} has no broker")

    peers: list[PeerSpec] = []
    seen_pairs: set[frozenset[str]] = set()
    for i, raw in enumerate(_list(top.get("peers", []), "topology.peers")):
        path = f"topology.peers[{i}]"
        pd = _dict(raw, path)
        _keys(pd, path, ("domains", "link"))
        doms = _list(pd["domains"], f"{path}.domains")
        lnk = _list(pd["link"], f"{path}.link")
        if len(doms) != 2 or len(lnk) != 2:
            _fail(path, "domains and link must each name two entries")
        d0, d1 = (_str(doms[0], f"{path}.domains[0]"), _str(doms[1], f"{path}.domains[1]"))
        n0, n1 = (_str(lnk[0], f"{path}.link[0]"), _str(lnk[1], f"{path}.link[1]"))
        for dom in (d0, d1):
            if dom not in brokers:
                _fail(f"{path}.domains", f"unknown domain {dom!r}")
        if d0 == d1:
            _fail(f"{path}.domains", "peer domains must differ")
        if frozenset((d0, d1)) in seen_pairs:
            _fail(path, "duplicate peer pair")
        seen_pairs.add(frozenset((d0, d1)))
        for n, dom, key in ((n0, d0, "link[0]"), (n1, d1, "link[1]")):
            if n not in ids:
                _fail(f"{path}.{key}", f"unknown node {n!r}")
            if topo.node(n).domain_id != dom:
                _fail(f"{path}.{key}", f"border node {n!r} is not in domain {dom!r}")
        if topo.link_between(n0, n1) is None:
            _fail(f"{path}.link", f"no link between {n0!r} and {n1!r}")
        peers.append(PeerSpec((d0, d1), (n0, n1)))

    for dom in sorted(topo.domains()):
        members = sorted(n for n in topo.nodes if topo.node(n).domain_id == dom)
        reach = {members[0]}
        frontier = [members[0]]
        while frontier:
            cur = frontier.pop()
            for nb, _ in topo.up_neighbors(cur):
                if topo.node(nb).domain_id == dom and nb not in reach:
                    reach.add(nb)
                    frontier.append(nb)
        missing = [n for n in members if n not in reach]
        if missing:
            _fail("topology", f"domain {dom!r} is not connected: {missing} unreachable")

    return topo, brokers, tuple(peers)


def _load_models(obj: Any, topo: Topology) -> tuple[ScenarioModel, ...]:
    out: list[ScenarioModel] = []
    seen: set[tuple[str, str]] = set()
    for i, raw in enumerate(_list(obj, "models")):
        path = f"models[{i}]"
        md = _dict(raw, path)
        _keys(md, path, ("model_id", "version", "task_tag", "layers"),
              ("params", "domain_id", "trainers", "artifact_kb"))
        mid = _str(md["model_id"], f"{path}.model_id")
        version = _int(md["version"], f"{path}.version")
        if version < 1:
            _fail(f"{path}.version", "version must be >= 1")
        tag = _str(md["task_tag"], f"{path}.task_tag")
        layers: list[LayerSpec] = []
        for j, lraw in enumerate(_list(md["layers"], f"{path}.layers")):
            lpath = f"{path}.layers[{j}]"
            ld = _dict(lraw, lpath)
            _keys(ld, lpath, ("compute_cost", "mem_mb", "selectivity"), ("needs_accelerator",))
            layers.append(_make(
                lpath, LayerSpec,
                _num(ld["compute_cost"], f"{lpath}.compute_cost"),
                _num(ld["mem_mb"], f"{lpath}.mem_mb"),
                _num(ld["selectivity"], f"{lpath}.selectivity"),
                _bool(ld.get("needs_accelerator", False), f"{lpath}.needs_accelerator"),
            ))
        dom = _str(md.get("domain_id", "d0"), f"{path}.domain_id")
        if dom not in topo.domains():
            _fail(f"{path}.domain_id", f"unknown domain {dom!r}")
        if (mid, dom) in seen:
            _fail(path, f"model {mid!r} declared twice in domain {dom!r}")
        seen.add((mid, dom))
        params = tuple(
            _float(v, f"{path}.params[{k}]")
            for k, v in enumerate(_list(md.get("params", []), f"{path}.params"))
        )
        trainers = []
        for k, v in enumerate(_list(md.get("trainers", []), f"{path}.trainers")):
            tn = _str(v, f"{path}.trainers[{k}]")
            if tn not in topo.nodes:
                _fail(f"{path}.trainers[{k}]", f"unknown node {tn!r}")
            if topo.node(tn).domain_id != dom:
                _fail(f"{path}.trainers[{k}]", f"trainer {tn!r} outside domain {dom!r}")
            if tn in trainers:
                _fail(f"{path}.trainers[{k}]", f"duplicate trainer {tn!r}")
            trainers.append(tn)
        akb = md.get("artifact_kb")
        if akb is not None:
            akb = _int(akb, f"{path}.artifact_kb")
            if akb < 1:
                _fail(f"{path}.artifact_kb", "artifact_kb must be >= 1")
        out.append(ScenarioModel(
            _make(path, ModelDescriptor, mid, version, tag, tuple(layers), params),
            dom, tuple(trainers), akb,
        ))
    return tuple(out)


def _load_bindings(obj: Any, topo: Topology) -> tuple[dict[str, str], TopicIndex]:
    """Topic -> publisher node, and the index of those topics."""
    raw = _dict(obj, "bindings")
    out: dict[str, str] = {}
    index = TopicIndex()
    for topic, node in raw.items():
        path = f"bindings.{topic}"
        index.add(_topic(topic, path))
        n = _str(node, path)
        if n not in topo.nodes:
            _fail(path, f"unknown node {n!r}")
        out[topic] = n
    return out, index


def _load_trigger(raw: Any, path: str) -> TriggerPolicy:
    td = _dict(raw, path)
    kind = _str(td.get("kind"), f"{path}.kind")
    if kind == "count":
        _keys(td, path, ("kind", "n"))
        return _make(path, CountWindow, _int(td["n"], f"{path}.n"))
    if kind == "time":
        _keys(td, path, ("kind", "delta_ms"))
        return _make(path, TimeWindow, _int(td["delta_ms"], f"{path}.delta_ms"))
    _fail(f"{path}.kind", "trigger kind must be count or time")


def _load_subscriptions(
    obj: Any,
    topo: Topology,
    models: tuple[ScenarioModel, ...],
    bindings: dict[str, str],
    bound: TopicIndex,
    peers: tuple[PeerSpec, ...],
) -> tuple[Subscription, ...]:
    out: list[Subscription] = []
    ids: set[str] = set()
    model_domains: dict[str, set[str]] = {}
    for sm in models:
        model_domains.setdefault(sm.model.model_id, set()).add(sm.domain_id)
    peered: set[frozenset[str]] = {frozenset(p.domains) for p in peers}

    for i, raw in enumerate(_list(obj, "subscriptions")):
        path = f"subscriptions[{i}]"
        sd = _dict(raw, path)
        kind = _str(sd.get("kind"), f"{path}.kind")
        sub_id = _str(sd.get("sub_id"), f"{path}.sub_id")
        if sub_id in ids:
            _fail(f"{path}.sub_id", f"duplicate sub id {sub_id!r}")
        ids.add(sub_id)
        subscriber = _str(sd.get("subscriber"), f"{path}.subscriber")
        if subscriber not in topo.nodes:
            _fail(f"{path}.subscriber", f"unknown node {subscriber!r}")
        sub_domain = topo.node(subscriber).domain_id

        if kind == "data":
            _keys(sd, path, ("sub_id", "subscriber", "kind", "filter"))
            flt = _filter(sd["filter"], f"{path}.filter")
            for topic in bound.matching(flt):
                if topo.node(bindings[topic]).domain_id != sub_domain:
                    _fail(f"{path}.filter",
                          f"matches {topic!r} published in another domain")
            out.append(Subscription(sub_id, subscriber, DataSub(flt)))
            continue

        if kind == "inference":
            _keys(sd, path, ("sub_id", "subscriber", "kind", "model_id", "filter"),
                  ("k", "privacy_split", "combine_fn", "trigger", "prefilter"))
            mid = _str(sd["model_id"], f"{path}.model_id")
            if mid not in model_domains:
                _fail(f"{path}.model_id", f"unknown model {mid!r}")
            if sub_domain not in model_domains[mid]:
                linked = any(
                    frozenset((sub_domain, d)) in peered for d in model_domains[mid]
                )
                if not linked:
                    _fail(f"{path}.model_id",
                          f"model {mid!r} is not reachable from domain {sub_domain!r}")
            flt = _filter(sd["filter"], f"{path}.filter")
            matched = inference_inputs(bound, flt)
            if not matched:
                _fail(f"{path}.filter", "no bound topic matches")
            for topic in matched:
                if topo.node(bindings[topic]).domain_id != sub_domain:
                    _fail(f"{path}.filter",
                          f"matches {topic!r} published in another domain")
            k = _int(sd.get("k", 1), f"{path}.k")
            layer_counts = {
                len(sm.model.layers) for sm in models if sm.model.model_id == mid
            }
            if k < 1 or any(k > n for n in layer_counts):
                _fail(f"{path}.k", f"k must be within 1..{min(layer_counts)}")
            privacy = _bool(sd.get("privacy_split", False), f"{path}.privacy_split")
            if privacy and len(matched) > 1:
                _fail(f"{path}.filter",
                      "privacy split needs exactly one matching publisher")
            combine = _str(sd.get("combine_fn", "concat"), f"{path}.combine_fn")
            if combine not in COMBINE_FNS:
                _fail(f"{path}.combine_fn", f"unknown combine fn {combine!r}")
            trigger = None
            if "trigger" in sd:
                trigger = _load_trigger(sd["trigger"], f"{path}.trigger")
            prefilter = None
            pargs = ()
            if "prefilter" in sd:
                pf = _dict(sd["prefilter"], f"{path}.prefilter")
                _keys(pf, f"{path}.prefilter", ("predicate",), ("args",))
                prefilter = _str(pf["predicate"], f"{path}.prefilter.predicate")
                if prefilter not in PREDICATES:
                    _fail(f"{path}.prefilter.predicate", f"unknown predicate {prefilter!r}")
                args = _dict(pf.get("args", {}), f"{path}.prefilter.args")
                for key, val in args.items():
                    apath = f"{path}.prefilter.args.{key}"
                    if isinstance(val, Fraction):
                        args[key] = _float(val, apath)
                    elif isinstance(val, bool) or not isinstance(val, (int, str)):
                        _fail(apath, "expected number or string")
                pargs = fn_args(**args)
            out.append(Subscription(sub_id, subscriber, InferenceSub(
                model_id=mid, filter=flt, privacy_split=privacy, k=k,
                combine_fn=combine, trigger=trigger,
                prefilter=prefilter, prefilter_args=pargs,
            )))
            continue

        if kind == "model_update":
            _keys(sd, path, ("sub_id", "subscriber", "kind", "model_id"), ("min_version",))
            mid = _str(sd["model_id"], f"{path}.model_id")
            if sub_domain not in model_domains.get(mid, set()):
                _fail(f"{path}.model_id", f"model {mid!r} is not in domain {sub_domain!r}")
            minv = _int(sd.get("min_version", 0), f"{path}.min_version")
            out.append(Subscription(
                sub_id, subscriber, _make(path, ModelUpdateSub, mid, minv)
            ))
            continue

        _fail(f"{path}.kind", "kind must be data, inference or model_update")
    return tuple(out)


def _load_workload(
    obj: Any,
    bindings: dict[str, str],
    topo: Topology,
    models: tuple[ScenarioModel, ...],
) -> WorkloadSpec:
    raw = _dict(obj, "workload")
    topics: dict[str, WorkloadEntry] = {}
    by_domain = {
        (sm.model.model_id, sm.domain_id): sm for sm in models
    }
    for topic, spec in raw.items():
        path = f"workload.{topic}"
        _topic(topic, path)
        if topic not in bindings:
            _fail(path, "workload topic has no binding")
        wd = _dict(spec, path)
        _keys(wd, path, ("size_bytes", "rate_per_s"),
              ("periodic", "payload", "start_ms", "count", "semantic_tag"))
        count = wd.get("count")
        if count is not None:
            count = _int(count, f"{path}.count")
            if count < 1:
                _fail(f"{path}.count", "count must be >= 1")
        payload = tuple(
            _float(v, f"{path}.payload[{k}]")
            for k, v in enumerate(_list(wd.get("payload", [1]), f"{path}.payload"))
        )
        tag = wd.get("semantic_tag")
        if tag is not None:
            tag = _str(tag, f"{path}.semantic_tag")
        parts = topic.split("/")
        if parts[0] == UPDATE_TOPIC_ROOT:
            if len(parts) != 3:
                _fail(path, "update topics are _updates/<model>/<trainer>")
            mid, trainer = parts[1], parts[2]
            node = bindings[topic]
            dom = topo.node(node).domain_id
            sm = by_domain.get((mid, dom))
            if sm is None:
                _fail(path, f"unknown model {mid!r} in domain {dom!r}")
            if trainer != node or node not in sm.trainers:
                _fail(path, f"binding node {node!r} is not a declared trainer")
            if "payload" not in wd or len(payload) != len(sm.model.params):
                _fail(f"{path}.payload",
                      f"delta length must equal params length {len(sm.model.params)}")
            if not wd.get("periodic", False):
                _fail(f"{path}.periodic", "trainer rounds must be periodic")
        topics[topic] = _make(
            path, WorkloadEntry,
            size_bytes=_int(wd["size_bytes"], f"{path}.size_bytes"),
            rate_per_s=_num(wd["rate_per_s"], f"{path}.rate_per_s"),
            periodic=_bool(wd.get("periodic", False), f"{path}.periodic"),
            payload=payload,
            start_ms=_int(wd.get("start_ms", 0), f"{path}.start_ms"),
            count=count,
            semantic_tag=tag,
        )
    return WorkloadSpec(topics)


def _load_faults(obj: Any, topo: Topology) -> tuple[FaultEvent, ...]:
    out: list[FaultEvent] = []
    for i, raw in enumerate(_list(obj, "faults")):
        path = f"faults[{i}]"
        fd = _dict(raw, path)
        kind = _str(fd.get("kind"), f"{path}.kind")
        if kind not in FAULT_KINDS:
            _fail(f"{path}.kind", f"kind must be one of {FAULT_KINDS}")
        at = _num(fd.get("at_ms"), f"{path}.at_ms")
        if at < 0:
            _fail(f"{path}.at_ms", "at_ms must be >= 0")
        if kind.startswith("node_"):
            _keys(fd, path, ("at_ms", "kind", "node"))
            node = _str(fd["node"], f"{path}.node")
            if node not in topo.nodes:
                _fail(f"{path}.node", f"unknown node {node!r}")
            out.append(FaultEvent(at, kind, node=node))
        else:
            _keys(fd, path, ("at_ms", "kind", "link"))
            lnk = _list(fd["link"], f"{path}.link")
            if len(lnk) != 2:
                _fail(f"{path}.link", "link must name two endpoints")
            a = _str(lnk[0], f"{path}.link[0]")
            b = _str(lnk[1], f"{path}.link[1]")
            if topo.link_between(a, b) is None:
                _fail(f"{path}.link", f"no link between {a!r} and {b!r}")
            out.append(FaultEvent(at, kind, link=(min(a, b), max(a, b))))
    return tuple(out)


def _load_objective(obj: Any) -> Objective:
    od = _dict(obj, "objective")
    _keys(od, "objective", (), ("alpha", "beta"))
    return _make(
        "objective", Objective,
        _num(od.get("alpha", 1), "objective.alpha"),
        _num(od.get("beta", Fraction(1, 10)), "objective.beta"),
    )


def _load_sim(obj: Any) -> SimParams:
    sd = _dict(obj, "sim")
    _keys(sd, "sim", ("duration_ms", "seed"), ("heartbeat_ms", "heartbeat_misses"))
    duration = _int(sd["duration_ms"], "sim.duration_ms")
    if duration < 1:
        _fail("sim.duration_ms", "duration_ms must be >= 1")
    seed = _int(sd["seed"], "sim.seed")
    if not 0 <= seed < 2 ** 64:
        _fail("sim.seed", "seed must fit in u64")
    hb = _int(sd.get("heartbeat_ms", 50), "sim.heartbeat_ms")
    misses = _int(sd.get("heartbeat_misses", 3), "sim.heartbeat_misses")
    if hb < 1 or misses < 1:
        _fail("sim", "heartbeat_ms and heartbeat_misses must be >= 1")
    return SimParams(duration, seed, hb, misses)


# one JSON token: a string, a bracket, a colon or a bare literal
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}:]|[^][{}:,\s"]+')


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("duplicate key")  # _json_fault finds which, and where
    return obj


def _json_fault(text: str) -> ParseError:
    """The first duplicate key or number too long to convert in text, which
    json.loads read up to one of them."""
    keys: list[set | None] = []  # per open object its keys, per array None
    prev = None
    for m in _JSON_TOKEN.finditer(text):
        tok = m.group()
        if tok in ("{", "["):
            keys.append(set() if tok == "{" else None)
        elif tok in ("}", "]"):
            keys.pop()
        elif tok == ":":
            key = json.loads(prev.group())
            if key in keys[-1]:
                line = text.count("\n", 0, prev.start()) + 1
                return ParseError(line, f"duplicate key {key!r}")
            keys[-1].add(key)
        elif tok[-1].isdigit():
            try:
                Fraction(tok)
            except ValueError:
                limit = sys.get_int_max_str_digits()
                line = text.count("\n", 0, m.start()) + 1
                return ParseError(line, f"number longer than {limit} digits")
        prev = m
    raise AssertionError("json.loads rejected a document with neither")


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        obj = json.loads(text, parse_float=Fraction, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    except RecursionError:
        # json's decoder recurses once per nested array or object
        raise ParseError(1, "arrays and objects nested too deeply") from None
    except ValueError:
        # a duplicate key, or a number past Python's int conversion limit
        raise _json_fault(text) from None
    root = _dict(obj, ROOT)
    _keys(root, "", TOP_KEYS)
    topo, brokers, peers = _load_topology(root["topology"])
    models = _load_models(root["models"], topo)
    bindings, bound = _load_bindings(root["bindings"], topo)
    subs = _load_subscriptions(
        root["subscriptions"], topo, models, bindings, bound, peers
    )
    workload = _load_workload(root["workload"], bindings, topo, models)
    faults = _load_faults(root["faults"], topo)
    objective = _load_objective(root["objective"])
    sim = _load_sim(root["sim"])
    return Scenario(
        topology=topo, brokers=brokers, peers=peers, models=models,
        bindings=bindings, subscriptions=subs, workload=workload,
        faults=faults, objective=objective, sim=sim,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())

"""Stage-to-node assignment: cost model, oracle, upstream heuristic, replanning."""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, Sequence, Union

from .core import (
    Barrier,
    CountWindow,
    Funnel,
    PipelineSpec,
    StageSpec,
    TimeWindow,
    Topic,
    TopicFilter,
    TopicIndex,
    Topology,
    Violation,
    as_ratio,
    route,
    scaled_size,
)
from .errors import (
    InstanceTerminatedError,
    NoFeasiblePlacementError,
    NoRouteError,
    SearchSpaceTooLargeError,
)

if TYPE_CHECKING:
    from .broker import PipelineInstance

ORACLE_BOUND = 1_000_000

# publisher context for a pipeline: one node id, or one per entry stage
Publishers = Union[str, dict[str, str]]

# node -> (memory, cpu load) of the stages a search holds there, in the
# shape's mem and cpu scales
_Totals = dict[str, tuple[int, int]]

# transfer terms, compute terms and node budgets: see TransferMemo
_Terms = dict[tuple[str, str, int], Union[tuple[int, int], None]]
_Compute = dict[tuple[int, str], int]
_Budgets = dict[tuple[int, int, str], tuple[int, int]]


@dataclass(frozen=True)
class Objective:
    """J = alpha * latency_ms + beta * bytes_kb."""

    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(1, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_ratio(self.alpha))
        object.__setattr__(self, "beta", as_ratio(self.beta))
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("objective: alpha and beta must be >= 0")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("objective: alpha and beta cannot both be zero")

    def value(self, latency_ms: Fraction, bytes_kb: Fraction) -> Fraction:
        return self.alpha * latency_ms + self.beta * bytes_kb


@dataclass(frozen=True)
class WorkloadEntry:
    """Per-topic input description. Only size and rate matter to placement;
    the remaining fields drive the simulator's publication generator."""

    size_bytes: int
    rate_per_s: Fraction
    periodic: bool = False
    payload: tuple[float, ...] = (1.0,)
    start_ms: int = 0
    count: int | None = None
    semantic_tag: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate_per_s", as_ratio(self.rate_per_s))
        object.__setattr__(self, "payload", tuple(float(v) for v in self.payload))
        if self.size_bytes < 1:
            raise ValueError("workload: size_bytes must be >= 1")
        if self.rate_per_s <= 0:
            raise ValueError("workload: rate_per_s must be > 0")
        if self.start_ms < 0:
            raise ValueError("workload: start_ms must be >= 0")
        if self.count is not None and self.count < 0:
            raise ValueError("workload: count must be >= 0")


@dataclass(frozen=True, eq=False)
class WorkloadSpec:
    topics: dict[str, WorkloadEntry]

    @cached_property
    def _index(self) -> TopicIndex:
        return TopicIndex(Topic.parse(name) for name in self.topics)

    def matching(self, filter: TopicFilter) -> list[str]:
        """Names of the workload topics filter matches, sorted."""
        return self._index.matching(filter)


@dataclass(frozen=True, eq=False)
class Placement:
    """Total map stage_id -> node_id for one pipeline instance."""

    assignment: dict[str, str]

    def node_of(self, stage_id: str) -> str:
        return self.assignment[stage_id]


@dataclass(frozen=True)
class CostReport:
    """Per-publication latency and traffic of a placement.

    bytes_kb counts each link hop separately (a 2-hop transfer of 10 KB costs
    20 KB); 1 KB = 1024 bytes. All three numbers are None when a stage is
    unassigned, a stage's node is missing from the topology, or some required
    route is missing.
    """

    latency_ms: Fraction | None
    bytes_kb: Fraction | None
    objective_value: Fraction | None
    feasible: bool
    violations: tuple[Violation, ...] = ()


# ---------------------------------------------------------------------------
# Workload and publisher context


def entry_workload(
    p: PipelineSpec, w: WorkloadSpec
) -> tuple[dict[str, int], dict[str, Fraction], list[Violation]]:
    """(entry sizes, entry rates, violations) from each entry's topic binding.

    Several matching topics combine as max size and summed rate.
    """
    sizes: dict[str, int] = {}
    rates: dict[str, Fraction] = {}
    violations: list[Violation] = []
    for sid in sorted(p.entry_ids()):
        names = w.matching(p.source_bindings[sid]) if sid in p.source_bindings else []
        if not names:
            violations.append(Violation("WorkloadMissing", sid))
            sizes[sid] = 1
            rates[sid] = Fraction(0)
            continue
        sizes[sid] = max(w.topics[n].size_bytes for n in names)
        rates[sid] = sum((w.topics[n].rate_per_s for n in names), Fraction(0))
    return sizes, rates, violations


def _publishers_by_entry(p: PipelineSpec, publisher: Publishers) -> dict[str, str]:
    if isinstance(publisher, str):
        return {sid: publisher for sid in p.entry_ids()}
    return dict(publisher)


def _anchor_publisher(p: PipelineSpec, sid: str, pubs: dict[str, str]) -> str:
    """The publisher feeding a stage: its own for entries, otherwise the
    lexicographically smallest over its entry ancestry."""
    if sid in pubs:
        return pubs[sid]
    seen: set[str] = set()
    frontier = [sid]
    found: set[str] = set()
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        preds = p.preds(cur)
        if not preds and cur in pubs:
            found.add(pubs[cur])
        frontier.extend(preds)
    if not found:
        raise KeyError(f"no publisher reaches stage {sid}")
    return min(found)


# ---------------------------------------------------------------------------
# Feasibility and cost


def _in_scale(x: Fraction, scale: int) -> int:
    """x * scale rounded down; exact when x's denominator divides scale."""
    return x.numerator * scale // x.denominator


class TransferMemo:
    """What the searches of one compile share, in exact integers.

    A search measures time in ticks of 1 / unit ms and traffic in bytes
    counted per hop. unit is the LCM of the snapshot's latency denominators
    (its _scale, in which its routing keeps latencies), 1024 times each
    bandwidth numerator and cpu, the LCM of the cpu capacity numerators. So
    every route latency and per-hop transfer time is a whole number of
    ticks, and so is compute_cost / cpu_capacity for every compute cost whose
    denominator divides unit // cpu; a shape whose costs need more works in
    a multiple of unit (see shape).

    Each answer is derived once, keyed by what it depends on. Per tick unit
    the memo keeps the transfer terms, (source, destination, bytes) ->
    (ticks, bytes counted per hop) on the snapshot t or None without a
    route, and the compute terms, (id(stage), node) -> ticks. Beside them it
    keeps each node's (memory, cpu) budget per (mem scale, cpu scale, node),
    one _Shape per pipeline shape and workload, the integer objective
    weights per (unit, objective) and, for each placement a search returns,
    the (ticks, bytes) it scored that placement at, which report turns into
    the placement's CostReport.

    compile_scenario makes one, hands it to every search of the compile and
    drops it when it returns, and Broker.on_node_failure makes one per repair
    for every replan of that failure, so no snapshot, broker or instance keeps
    any of it alive. A search given none, or one of another snapshot, makes
    its own.
    """

    def __init__(self, t: Topology) -> None:
        self.t = t
        links = t.links.values()
        self.cpu = lcm(*(n.cpu_capacity.numerator for n in t.nodes.values()))
        self.unit = lcm(
            self.cpu,
            t._scale,
            *(1024 * link.bandwidth_kb_per_ms.numerator for link in links),
        )
        # unit -> (transfer terms, compute terms) in ticks of 1 / unit ms
        self._units: dict[int, tuple[_Terms, _Compute]] = {}
        self._budgets: _Budgets = {}
        self._shapes: dict[tuple, _Shape] = {}
        self._weights: dict[tuple[int, int], tuple[Objective, int, int]] = {}
        # placement -> (ticks, bytes, unit)
        self._scores: dict[Placement, tuple[int, int, int]] = {}

    def shape(self, p: PipelineSpec, w: WorkloadSpec) -> _Shape:
        """The _Shape of p under w on t, shared by every pipeline built from
        the same stage objects, edges and entry bindings.

        The key holds the workload and the stages by identity, never by
        value: hashing a StageSpec hashes each of its Fractions. The shape
        keeps those objects alive, so no id in a key is reused while the
        memo lives. A shape's unit is the memo's times the least factor whose
        product with unit // cpu every compute cost's denominator divides. It
        shares that unit's transfer and compute terms with every shape of the
        unit, and the budgets with every shape of the memo.
        """
        bindings = tuple(p.source_bindings.items())
        key = (id(w), tuple(map(id, p.stages)), p.edges, bindings)
        got = self._shapes.get(key)
        if got is None:
            den = lcm(*(s.compute_cost.denominator for s in p.stages))
            unit = self.unit * (den // gcd(den, self.unit // self.cpu))
            terms, compute = self._units.setdefault(unit, ({}, {}))
            got = self._shapes[key] = _Shape(
                p, w, self.t, unit, terms, compute, self._budgets
            )
        return got

    def weights(self, unit: int, o: Objective) -> tuple[int, int]:
        """Integer (a, b) such that a * ticks + b * bytes is o's value of
        (ticks / unit ms, bytes / 1024 KB) times one positive constant, once
        per unit and objective object; the entry keeps o alive, so its id is
        never reused while the memo lives."""
        got = self._weights.get((unit, id(o)))
        if got is None:
            a, b = o.alpha / unit, o.beta / 1024
            d = lcm(a.denominator, b.denominator)
            wa, wb = (x.numerator * (d // x.denominator) for x in (a, b))
            got = self._weights[unit, id(o)] = o, wa, wb
        return got[1], got[2]

    def report(self, pl: Placement, o: Objective) -> CostReport | None:
        """pl's CostReport from the (ticks, bytes) its search scored it at;
        None when no search of this memo returned pl. A search returns only
        placements it has checked against every rule of the evaluator's
        violations, so the report is feasible and lists none."""
        got = self._scores.get(pl)
        return None if got is None else _report(*got, o, ())


def _report(
    ticks: int, moved: int, unit: int, o: Objective, violations: tuple[Violation, ...]
) -> CostReport:
    """The CostReport of a walk's (ticks, bytes) in ticks of 1 / unit ms."""
    latency, bytes_kb = Fraction(ticks, unit), Fraction(moved, 1024)
    return CostReport(
        latency_ms=latency,
        bytes_kb=bytes_kb,
        objective_value=o.value(latency, bytes_kb),
        feasible=not violations,
        violations=violations,
    )


class _Shape:
    """What a pipeline's stages, edges and entry bindings derive from the
    workload on one snapshot t, for every subscriber: the entry workload,
    each stage's output size and cpu load and each stage's integer memory
    and cpu needs, derived on first use and shared by every search of the
    shape. Node budgets in those needs' scales, and transfer and compute
    terms in ticks of 1 / unit ms, live in the memo's dicts, which the shape
    holds without the memo: it derives each on the first use by any shape
    that shares the dict."""

    def __init__(
        self, p: PipelineSpec, w: WorkloadSpec, t: Topology, unit: int,
        terms: _Terms, compute: _Compute, budgets: _Budgets,
    ) -> None:
        self.p = p
        self.w = w
        self.t = t
        self.unit = unit
        self.terms = terms
        self._compute = compute
        self._budgets = budgets

    @cached_property
    def workload(
        self,
    ) -> tuple[dict[str, int], dict[str, int], dict[str, Fraction], list[Violation]]:
        """(entry sizes, output size per stage, cpu load per stage, workload
        violations).

        A stage's load is its compute cost times the publications per 1000 ms
        it emits, over 1000. Filters count as pass-through in the rates, the
        conservative bound for cpu budgeting.
        """
        p = self.p
        entry_sizes, entry_rates, violations = entry_workload(p, self.w)
        sizes: dict[str, int] = {}
        rates: dict[str, Fraction] = {}
        loads: dict[str, Fraction] = {}
        for sid in p.topo_order():
            stage = p.stage(sid)
            preds = p.preds(sid)
            if not preds:
                incoming = entry_sizes[sid]
                rates[sid] = entry_rates[sid]
            elif isinstance(stage.kind, Funnel):
                incoming = sum(sizes[q] for q in preds)
                trigger = stage.kind.trigger
                if isinstance(trigger, Barrier):
                    rates[sid] = min(rates[q] for q in preds)
                elif isinstance(trigger, CountWindow):
                    rates[sid] = sum((rates[q] for q in preds), Fraction(0)) / trigger.n
                else:
                    assert isinstance(trigger, TimeWindow)
                    rates[sid] = Fraction(1000, trigger.delta_ms)
            else:
                incoming = max(sizes[q] for q in preds)
                rates[sid] = sum((rates[q] for q in preds), Fraction(0))
            sizes[sid] = scaled_size(incoming, stage.selectivity)
            loads[sid] = stage.compute_cost * rates[sid] / 1000
        return entry_sizes, sizes, loads, violations

    @cached_property
    def needs(self) -> tuple[int, int, dict[str, tuple[int, int]]]:
        """(mem scale, cpu scale, stage -> (memory, cpu load) in those scales).

        The mem scale is the LCM of the stages' mem_mb denominators and the
        cpu scale that of their load denominators, so every need is an int.
        """
        loads = self.workload[2]
        ms = lcm(*(s.mem_mb.denominator for s in self.p.stages))
        cs = lcm(*(load.denominator for load in loads.values()))
        needs = {
            s.stage_id: (_in_scale(s.mem_mb, ms), _in_scale(loads[s.stage_id], cs))
            for s in self.p.stages
        }
        return ms, cs, needs

    def budget(self, node_id: str) -> tuple[int, int]:
        """node_id's (memory, cpu) budget in the mem and cpu scales, rounded
        down: an integer total fits the exact budget exactly when it fits
        the floor."""
        ms, cs, _ = self.needs
        key = (ms, cs, node_id)
        got = self._budgets.get(key)
        if got is None:
            node = self.t.node(node_id)
            got = (_in_scale(node.mem_mb, ms), _in_scale(node.cpu_capacity, cs))
            self._budgets[key] = got
        return got

    def transfer(self, a: str, b: str, size_bytes: int) -> tuple[int, int] | None:
        """(ticks, bytes counted per hop) to move size_bytes along
        route(t, a, b), or None when there is no route. Each hop takes its
        latency plus size over bandwidth. Memoized per (a, b, size_bytes)."""
        terms, unit, t = self.terms, self.unit, self.t
        key = (a, b, size_bytes)
        if key not in terms:
            got = t.shortest(a, b)
            if got is None:
                terms[key] = None
            else:
                lat, hops, path = got
                ticks = lat * (unit // t._scale)
                for x, y in zip(path, path[1:]):
                    link = t.link_between(x, y)
                    assert link is not None
                    bw = link.bandwidth_kb_per_ms
                    per_byte = bw.denominator * (unit // (1024 * bw.numerator))
                    ticks += size_bytes * per_byte
                terms[key] = (ticks, size_bytes * hops)
        return terms[key]

    def compute(self, sid: str, node_id: str) -> int:
        """Ticks sid computes for on node_id: compute_cost / cpu_capacity ms,
        in ints, as unit is a multiple of the capacity's numerator."""
        stage = self.p.stage(sid)
        key = (id(stage), node_id)
        got = self._compute.get(key)
        if got is None:
            cost = stage.compute_cost
            cpu = self.t.node(node_id).cpu_capacity
            per_cost = cpu.denominator * (self.unit // cpu.numerator)
            got = self._compute[key] = cost.numerator * per_cost // cost.denominator
        return got


def _pins(
    p: PipelineSpec, pubs: dict[str, str] | None, subscriber: str | None
) -> dict[str, str]:
    """Stage -> the node its pin holds it to, for every pin checkable with
    the publishers by entry (pubs) and the subscriber given."""
    out: dict[str, str] = {}
    for s in p.stages:
        if s.pin.kind == "node":
            assert s.pin.node_id is not None
            out[s.stage_id] = s.pin.node_id
        elif s.pin.kind == "publisher" and pubs is not None:
            out[s.stage_id] = _anchor_publisher(p, s.stage_id, pubs)
        elif s.pin.kind == "subscriber" and subscriber is not None:
            out[s.stage_id] = subscriber
    return out


class _Evaluator:
    """Feasibility and cost of assignments of one pipeline on one topology,
    workload, publisher context and subscriber.

    What no assignment changes is derived on first use: each stage's anchor
    publisher and the pin targets here, and everything that reads no
    publisher or subscriber in the pipeline's _Shape, which the memo shares
    with every search of the compile on the same pipeline shape. Publisher
    and subscriber pins are only checkable when that context is given.

    Every search places stages through the same two rules: admits (with hold
    for the per-node totals it reads) decides whether a node may take a
    stage, and timing gives the stage's finish time and incoming bytes there.

    Times are integer ticks of 1 / shape.unit ms and traffic is bytes
    counted per hop, so a search adds and compares ints; weights turns the
    objective into integer weights on the two. Memory and cpu load are ints
    as well, in the shape's mem and cpu scales, so admission adds and
    compares ints too.
    """

    def __init__(
        self,
        p: PipelineSpec,
        t: Topology,
        w: WorkloadSpec,
        publisher: Publishers | None = None,
        subscriber: str | None = None,
        memo: TransferMemo | None = None,
    ) -> None:
        if memo is None or memo.t is not t:
            memo = TransferMemo(t)
        self.p = p
        self.t = t
        self.memo = memo
        self.shape = memo.shape(p, w)
        self.pubs = None if publisher is None else _publishers_by_entry(p, publisher)
        self.subscriber = subscriber
        self._anchors: dict[str, str] = {}

    def anchor(self, sid: str) -> str:
        """_anchor_publisher of sid; needs the publisher context."""
        assert self.pubs is not None
        if sid not in self._anchors:
            self._anchors[sid] = _anchor_publisher(self.p, sid, self.pubs)
        return self._anchors[sid]

    def weights(self, o: Objective) -> tuple[int, int]:
        """TransferMemo.weights of o in the shape's unit."""
        return self.memo.weights(self.shape.unit, o)

    def distance(self, a: str, b: str) -> tuple[int, int, int]:
        """Totally ordered distance of route(t, a, b): (0, latency * t._scale,
        hops), or (1, 0, 0), farther than any route, when there is none."""
        got = self.t.shortest(a, b)
        return (1, 0, 0) if got is None else (0, got[0], got[1])

    @cached_property
    def pins(self) -> dict[str, str]:
        """Stage -> the node its pin holds it to, for every checkable pin."""
        return _pins(self.p, self.pubs, self.subscriber)

    def admits(self, sid: str, node_id: str, totals: _Totals) -> bool:
        """Whether node_id is up, has the accelerator sid needs, and has
        memory and cpu room for sid beside the per-node (mem, cpu) totals."""
        if not self.t.is_node_up(node_id):
            return False
        node, stage = self.t.node(node_id), self.p.stage(sid)
        if stage.needs_accelerator and not node.has_accelerator:
            return False
        mem, cpu = totals.get(node_id, (0, 0))
        need_mem, need_cpu = self.shape.needs[2][sid]
        max_mem, max_cpu = self.shape.budget(node_id)
        return mem + need_mem <= max_mem and cpu + need_cpu <= max_cpu

    def hold(self, sid: str, node_id: str, totals: _Totals, add: bool) -> None:
        """Add sid's memory and cpu load to node_id's totals, or remove it."""
        mem, cpu = totals.get(node_id, (0, 0))
        need_mem, need_cpu = self.shape.needs[2][sid]
        if add:
            totals[node_id] = mem + need_mem, cpu + need_cpu
        else:
            totals[node_id] = mem - need_mem, cpu - need_cpu

    def budget_violations(self, assigned: dict[str, str]) -> list[Violation]:
        """Memory and cpu budgets of each node over the stages assigned."""
        totals: _Totals = {}
        for s in self.p.stages:
            if s.stage_id in assigned:
                self.hold(s.stage_id, assigned[s.stage_id], totals, add=True)
        ms, cs, _ = self.shape.needs
        out: list[Violation] = []
        for node_id in sorted(totals):
            node = self.t.node(node_id)
            mem, cpu = totals[node_id]
            max_mem, max_cpu = self.shape.budget(node_id)
            if mem > max_mem:
                out.append(Violation(
                    "MemoryExceeded", node_id, f"{Fraction(mem, ms)} > {node.mem_mb}"
                ))
            if cpu > max_cpu:
                out.append(Violation(
                    "CpuExceeded", node_id, f"{Fraction(cpu, cs)} > {node.cpu_capacity}"
                ))
        return out

    def violations(self, assigned: dict[str, str]) -> list[Violation]:
        """Resource, pin and route violations; empty means feasible."""
        p, t = self.p, self.t
        out = [
            Violation("Unassigned", s.stage_id)
            for s in p.stages
            if s.stage_id not in assigned
        ]
        if out:
            return sorted(out)

        for s in p.stages:
            node_id = assigned[s.stage_id]
            if node_id not in t.nodes:
                out.append(Violation("NodeMissing", s.stage_id, node_id))
                continue
            if not t.is_node_up(node_id):
                out.append(Violation("NodeDown", s.stage_id, node_id))
            if s.needs_accelerator and not t.node(node_id).has_accelerator:
                out.append(Violation("AcceleratorMissing", s.stage_id, node_id))
            want = self.pins.get(s.stage_id)
            if want is not None and node_id != want:
                out.append(Violation("PinViolation", s.stage_id, f"pinned {want}"))
        if any(v.rule == "NodeMissing" for v in out):
            return sorted(out)

        out.extend(self.shape.workload[3])
        out.extend(self.budget_violations(assigned))

        hops = [(assigned[a], assigned[b]) for a, b in p.edges]
        if self.pubs is not None:
            hops.extend((self.pubs[sid], assigned[sid]) for sid in p.entry_ids())
        if self.subscriber is not None:
            hops.append((assigned[p.sink], self.subscriber))
        for a, b in dict.fromkeys(hops):
            if a != b and t.shortest(a, b) is None:
                out.append(Violation("RouteMissing", f"{a}->{b}"))
        return sorted(set(out))

    def timing(
        self,
        sid: str,
        node_id: str,
        assigned: dict[str, str],
        finish: dict[str, int],
    ) -> tuple[int, int] | None:
        """(finish ticks, bytes moved in) of stage sid on node_id, given each
        predecessor's node in assigned and finish ticks in finish; None when
        an input has no route. An entry's input comes from its publisher.

        The stage starts when its last input arrives and computes for
        compute_cost / cpu_capacity ms, so finish times only grow along edges.
        """
        shape = self.shape
        entry_sizes, sizes, _, _ = shape.workload
        preds = self.p.preds(sid)
        if not preds:
            assert self.pubs is not None
            term = shape.transfer(self.pubs[sid], node_id, entry_sizes[sid])
            if term is None:
                return None
            at, moved = term
        else:
            at = moved = 0
            for q in preds:
                term = shape.transfer(assigned[q], node_id, sizes[q])
                if term is None:
                    return None
                at = max(at, finish[q] + term[0])
                moved += term[1]
        return at + shape.compute(sid, node_id), moved

    def walk(self, assigned: dict[str, str]) -> tuple[int, int]:
        """(latency ticks, bytes) of one publication through a full
        assignment whose transfers all have routes; checks nothing else.

        Latency is the latest finish along the DAG plus the transfer to the
        subscriber; bytes sum every transfer. Needs the publisher and
        subscriber context.
        """
        assert self.subscriber is not None
        p = self.p
        moved = 0
        finish: dict[str, int] = {}
        for sid in p.topo_order():
            got = self.timing(sid, assigned[sid], assigned, finish)
            assert got is not None
            finish[sid], hop_bytes = got
            moved += hop_bytes
        sink_size = self.shape.workload[1][p.sink]
        term = self.shape.transfer(assigned[p.sink], self.subscriber, sink_size)
        assert term is not None
        return finish[p.sink] + term[0], moved + term[1]

    def cost(self, assigned: dict[str, str], o: Objective) -> CostReport:
        """The CostReport of an assignment; needs the publisher and subscriber
        context."""
        assert self.pubs is not None and self.subscriber is not None
        violations = tuple(self.violations(assigned))
        missing = ("Unassigned", "NodeMissing", "RouteMissing")
        if any(v.rule in missing for v in violations):
            return CostReport(None, None, None, False, violations)
        ticks, moved = self.walk(assigned)
        return _report(ticks, moved, self.shape.unit, o, violations)

    def placed(self, assigned: dict[str, str], ticks: int, moved: int) -> Placement:
        """Placement(assigned), which a search returns having scored it at
        (ticks, bytes) by walk; the memo keeps the score for
        TransferMemo.report."""
        pl = Placement(assigned)
        self.memo._scores[pl] = (ticks, moved, self.shape.unit)
        return pl


def feasible(
    pl: Placement,
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    publisher: Publishers | None = None,
    subscriber: str | None = None,
) -> list[Violation]:
    """Resource, pin and route violations of a placement; empty means feasible.

    Publisher/subscriber pins are only checkable when that context is given.
    """
    return _Evaluator(p, t, w, publisher, subscriber).violations(pl.assignment)


def cost(
    pl: Placement,
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
    memo: TransferMemo | None = None,
) -> CostReport:
    """Critical-path latency and per-hop KB for one publication through pl.

    Latency sums entry transfer, per-stage compute (cost / cpu_capacity),
    inter-stage transfers, and the final transfer to the subscriber, along the
    longest path of the DAG. memo shares transfer terms with the searches of
    one compile; it changes no result.
    """
    return _Evaluator(p, t, w, publisher, subscriber, memo).cost(pl.assignment, o)


# ---------------------------------------------------------------------------
# Placement algorithms


def place_oracle(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
    memo: TransferMemo | None = None,
) -> Placement:
    """Exact minimum-objective placement of all unpinned stages, by
    branch-and-bound; capped at ORACLE_BOUND candidate assignments.

    Ties prefer more upstream assignments: lexicographically by stage order on
    (distance from the stage's publisher, node id). That key ends in node ids,
    so the minimum of (objective, key) over the feasible assignments is unique
    and the search returns what scoring every candidate would.

    The search assigns stages depth first in topological order (Land and Doig
    1960), carrying each stage's finish time, the KB moved so far and each
    node's memory and cpu load. A branch is dropped when a stage lands on a
    node that is down or lacks a needed accelerator, a budget is exceeded
    (loads only grow), or a route is missing. It is also dropped when
    alpha * (latest finish among the assigned ancestors of the sink, plus the
    transfer to the subscriber once the sink is placed) + beta * KB is
    strictly greater than the best objective found: no term shrinks as
    stages are added, so the bound never overestimates, and a tie survives
    to be compared by key. Stages that do not reach the sink add no latency.
    A full assignment is scored by the same running terms: the search has
    checked every rule of the evaluator's violations on the way down, and
    finish times only grow along edges, so the bound at a leaf is the walk's
    latency. Bounds and leaves are compared as the evaluator's integer
    weighting of (ticks, bytes), which orders them as the objective does.
    The best leaf's (ticks, bytes) go to ev.placed with its assignment.
    """
    ev = _Evaluator(p, t, w, publisher, subscriber, memo)
    wa, wb = ev.weights(o)
    pins = ev.pins
    unpinned = [s.stage_id for s in p.stages if s.stage_id not in pins]
    candidates = sorted(n for n in t.nodes if t.is_node_up(n))
    space = len(candidates) ** len(unpinned) if unpinned else 1
    if space > ORACLE_BOUND:
        raise SearchSpaceTooLargeError(space, ORACLE_BOUND)
    _, sizes, _, missing = ev.shape.workload
    if missing:
        raise NoFeasiblePlacementError(p.pipeline_id)

    order = list(dict.fromkeys(p.topo_order()))  # each stage id once
    critical: set[str] = set()  # the sink and its ancestors
    frontier = [p.sink]
    while frontier:
        sid = frontier.pop()
        if sid not in critical:
            critical.add(sid)
            frontier.extend(p.preds(sid))

    def upstream_key(assignment: dict[str, str]) -> tuple:
        return tuple(
            ev.distance(ev.anchor(s.stage_id), assignment[s.stage_id])
            + (assignment[s.stage_id],)
            for s in p.stages
        )

    assigned: dict[str, str] = {}
    finish: dict[str, int] = {}
    totals: _Totals = {}
    best: tuple | None = None
    best_assignment: dict[str, str] | None = None
    best_score = (0, 0)  # (latency ticks, bytes) of best_assignment

    def search(i: int, latest: int, moved: int) -> None:
        nonlocal best, best_assignment, best_score
        if i == len(order):
            key = (wa * latest + wb * moved, upstream_key(assigned))
            if best is None or key < best:
                best, best_assignment = key, dict(assigned)
                best_score = latest, moved
            return
        sid = order[i]
        for node_id in [pins[sid]] if sid in pins else candidates:
            if not ev.admits(sid, node_id, totals):
                continue
            got = ev.timing(sid, node_id, assigned, finish)
            if got is None:
                continue
            done, kb = got[0], moved + got[1]
            bound = max(latest, done) if sid in critical else latest
            if sid == p.sink:
                out = ev.shape.transfer(node_id, subscriber, sizes[sid])
                if out is None:
                    continue
                bound = max(bound, done + out[0])
                kb += out[1]
            if best is not None and wa * bound + wb * kb > best[0]:
                continue
            assigned[sid], finish[sid] = node_id, done
            ev.hold(sid, node_id, totals, add=True)
            search(i + 1, bound, kb)
            ev.hold(sid, node_id, totals, add=False)

    search(0, 0, 0)
    del search  # it refers to itself: free its state now, not at the next gc
    if best_assignment is None:
        raise NoFeasiblePlacementError(p.pipeline_id)
    return ev.placed(best_assignment, *best_score)


def _route_candidates(t: Topology, pubs: dict[str, str], subscriber: str) -> set[str]:
    """Union of publisher->subscriber route nodes."""
    seen: set[str] = set()
    for pub in sorted(set(pubs.values())):
        try:
            seen.update(route(t, pub, subscriber))
        except NoRouteError:
            raise NoFeasiblePlacementError(f"no route {pub}->{subscriber}") from None
    return seen


def _upstream_with_fixed(
    ev: _Evaluator, o: Objective, fixed: dict[str, str], movable: list[str]
) -> Placement:
    """Greedy most-upstream assignment of movable stages plus local search.

    Movable stages may only sit at or downstream of their predecessors along
    the route ordering; fixed assignments are never touched. fixed and
    movable together cover every stage. The placement returned is feasible
    under ev; NoFeasiblePlacementError otherwise.

    A candidate is checked by what it changes. Every greedy choice and every
    move keeps each node within its memory and cpu budgets, so a candidate
    must admit the one stage beside running per-node totals, unless fixed
    stages already break a budget, which fails every greedy candidate. The
    local search starts from a feasible assignment and moves one stage,
    which carries no pin, to a candidate that also lies at or upstream of
    its successors. Its transfers keep their routes, since every candidate
    lies on a publisher->subscriber route and so in the one component that a
    feasible assignment's stages share. A move is scored by ev.walk alone,
    weighted in integers as the oracle's leaves are, and the walk of the
    assignment returned goes to ev.placed with it.
    """
    p, t, subscriber = ev.p, ev.t, ev.subscriber
    assert ev.pubs is not None and subscriber is not None
    movable_set = set(movable)
    assignment = dict(fixed)
    downs: dict[str, tuple] = {}
    wa, wb = ev.weights(o)

    def down(node_id: str) -> tuple:
        """ev.distance from node_id to the subscriber, once per node."""
        if node_id not in downs:
            downs[node_id] = ev.distance(node_id, subscriber)
        return downs[node_id]

    # most upstream first, ties by node id; every route node reaches the
    # subscriber along its route, so none sorts as unroutable
    ranked = sorted(_route_candidates(t, ev.pubs, subscriber))
    ranked.sort(key=down, reverse=True)

    totals: _Totals = {}
    for sid, node_id in fixed.items():
        ev.hold(sid, node_id, totals, add=True)
    within_budgets = not ev.budget_violations(fixed)

    def fits(sid: str, cand: str, succs: Sequence[str] = ()) -> bool:
        """cand lies at or downstream of the nodes of sid's predecessors and
        at or upstream of those of succs, and admits sid."""
        d = down(cand)
        return (
            all(d <= down(assignment[q]) for q in p.preds(sid))
            and all(down(assignment[q]) <= d for q in succs)
            and ev.admits(sid, cand, totals)
        )

    for sid in p.topo_order():
        if sid not in movable_set:
            continue
        chosen = next((c for c in ranked if within_budgets and fits(sid, c)), None)
        if chosen is None:
            raise NoFeasiblePlacementError(f"{p.pipeline_id}: stage {sid}")
        assignment[sid] = chosen
        ev.hold(sid, chosen, totals, add=True)

    violations = ev.violations(assignment)
    if violations:
        raise NoFeasiblePlacementError(
            f"{p.pipeline_id}: {[v.rule for v in violations]}"
        )
    score = ev.walk(assignment)
    current = wa * score[0] + wb * score[1]

    max_moves = 100 * len(p.stages)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for sid in p.topo_order():
            if sid not in movable_set or moves >= max_moves:
                continue
            here = assignment[sid]
            # the first of the lowest values, so the best rank among them
            best: tuple[int, str, tuple[int, int]] | None = None
            for cand in ranked:
                if cand == here or not fits(sid, cand, p.succs(sid)):
                    continue
                assignment[sid] = cand
                got = ev.walk(assignment)
                value = wa * got[0] + wb * got[1]
                assignment[sid] = here
                if value < current and (best is None or value < best[0]):
                    best = value, cand, got
            if best is not None:
                current, assignment[sid], score = best
                ev.hold(sid, here, totals, add=False)
                ev.hold(sid, assignment[sid], totals, add=True)
                moves += 1
                improved = True
    return ev.placed(assignment, *score)


def place_upstream(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
    memo: TransferMemo | None = None,
) -> Placement:
    """Balanced-upstream heuristic over the publisher->subscriber route."""
    ev = _Evaluator(p, t, w, publisher, subscriber, memo)
    movable = [s.stage_id for s in p.stages if s.stage_id not in ev.pins]
    return _upstream_with_fixed(ev, o, ev.pins, movable)


def place_baseline_subscriber(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    publisher: Publishers,
    subscriber: str,
) -> Placement:
    """Everything unpinned at the subscriber; feasibility not required."""
    pins = _pins(p, _publishers_by_entry(p, publisher), subscriber)
    return Placement({s.stage_id: pins.get(s.stage_id, subscriber) for s in p.stages})


def replan(
    pl: Placement,
    failed: set[str],
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
    memo: TransferMemo | None = None,
) -> Placement:
    """Re-place only the stages that sat on failed nodes; survivors stay.
    memo is shared as by place_upstream."""
    ev = _Evaluator(p, t, w, publisher, subscriber, memo)
    assert ev.pubs is not None
    if subscriber in failed or any(pub in failed for pub in ev.pubs.values()):
        raise InstanceTerminatedError(p.pipeline_id)
    for node_id in ev.pins.values():
        if node_id in failed:
            raise NoFeasiblePlacementError(f"{p.pipeline_id}: pin on failed {node_id}")
    movable = [
        s.stage_id
        for s in p.stages
        if pl.assignment[s.stage_id] in failed and s.stage_id not in ev.pins
    ]
    fixed = {
        sid: node
        for sid, node in pl.assignment.items()
        if sid not in movable
    }
    return _upstream_with_fixed(ev, o, fixed, movable)


# ---------------------------------------------------------------------------
# Shared-prefix merging


@dataclass(frozen=True)
class ExecStage:
    """One physically executed stage, possibly shared by several instances."""

    exec_id: str
    stage: StageSpec
    node: str
    pred_ids: tuple[str, ...]
    entry_binding: tuple[str, str] | None  # (topic, publisher) for entries
    instance_ids: tuple[str, ...]


@dataclass(frozen=True)
class DeliveryEdge:
    """Fan-out from an instance's sink execution to its subscriber."""

    exec_id: str
    instance_id: str
    sub_id: str
    subscriber: str


class ExecutionGraph:
    """Active instance pipelines merged so each shared prefix stage runs once.

    merge_shared_prefix keeps it up to date. Beside the stages it keeps the
    indexes dispatch reads instead of rescanning: each instance's exec per
    stage, the successors of each exec, the entry execs per (topic,
    publisher) and the delivery edges per sink exec. Each index lists what a
    full scan would, in the same order.
    """

    def __init__(self) -> None:
        self.stages: dict[str, ExecStage] = {}
        self._chains: dict[str, dict[str, str]] = {}  # instance -> stage -> exec
        self._edges: dict[str, DeliveryEdge] = {}  # instance -> its delivery
        self._succs: dict[str, list[str]] = {}  # sorted exec ids
        self._entries: dict[tuple[str, str], list[str]] = {}  # sorted exec ids
        self._deliveries: dict[str, list[DeliveryEdge]] = {}  # by instance id

    @property
    def deliveries(self) -> tuple[DeliveryEdge, ...]:
        """Every delivery edge, in instance-id order."""
        return tuple(self._edges[iid] for iid in sorted(self._edges))

    def succs(self, exec_id: str) -> list[ExecStage]:
        return [self.stages[x] for x in self._succs.get(exec_id, ())]

    def entries(self, topic: str, publisher: str) -> list[ExecStage]:
        """Entry execs bound to topic as published by publisher."""
        return [self.stages[x] for x in self._entries.get((topic, publisher), ())]

    def deliveries_from(self, exec_id: str) -> list[DeliveryEdge]:
        return list(self._deliveries.get(exec_id, ()))

    def exec_for(self, instance_id: str, stage_id: str) -> ExecStage | None:
        """Exec running stage_id for the instance; None when it is not in
        the graph."""
        exec_id = self._chains.get(instance_id, {}).get(stage_id)
        return None if exec_id is None else self.stages[exec_id]


def _discard(index: dict, key, item) -> None:
    """Remove item from index[key], dropping the key once its list empties."""
    items = index[key]
    items.remove(item)
    if not items:
        del index[key]


def _exec_key_id(
    stage: StageSpec,
    node: str,
    pred_ids: tuple[str, ...],
    entry_binding: tuple[str, str] | None,
) -> str:
    # the text of repr((stage, node, pred_ids, entry_binding))
    text = f"({stage._repr}, {node!r}, {pred_ids!r}, {entry_binding!r})"
    return "x" + hashlib.sha1(text.encode()).hexdigest()[:12]


def merge_shared_prefix(
    g: ExecutionGraph,
    removed: Sequence[str] = (),
    added: Sequence["PipelineInstance"] = (),
) -> None:
    """Apply one change to the merged graph: take the removed instance ids
    out, then merge the added instances in.

    Two instances share an execution exactly when the stage spec, assigned
    node, upstream executions, and (for entries) the topic binding coincide;
    anything downstream of a divergence fans out. An exec id hashes just
    those, so a change costs the length of the pipelines it touches, and an
    exec leaves the graph with the last instance running it.
    """
    for iid in removed:
        edge = g._edges.pop(iid)
        _discard(g._deliveries, edge.exec_id, edge)
        for exec_id in set(g._chains.pop(iid).values()):
            ex = g.stages[exec_id]
            ids = tuple(i for i in ex.instance_ids if i != iid)
            if ids:
                g.stages[exec_id] = replace(ex, instance_ids=ids)
                continue
            del g.stages[exec_id]
            for q in set(ex.pred_ids):
                _discard(g._succs, q, exec_id)
            if not ex.pred_ids and ex.entry_binding is not None:
                _discard(g._entries, ex.entry_binding, exec_id)

    for inst in added:
        iid = inst.instance_id
        p = inst.pipeline
        local: dict[str, str] = {}
        for sid in p.topo_order():
            spec = p.stage(sid)
            node = inst.placement.node_of(sid)
            preds = tuple(sorted(local[q] for q in p.preds(sid)))
            binding = inst.entry_bindings.get(sid)
            exec_id = _exec_key_id(spec, node, preds, binding)
            local[sid] = exec_id
            prior = g.stages.get(exec_id)
            if prior is None:
                g.stages[exec_id] = ExecStage(
                    exec_id, spec, node, preds, binding, (iid,)
                )
                for q in set(preds):
                    insort(g._succs.setdefault(q, []), exec_id)
                if not preds and binding is not None:
                    insort(g._entries.setdefault(binding, []), exec_id)
            elif iid not in prior.instance_ids:
                ids = list(prior.instance_ids)
                insort(ids, iid)
                # what replace(prior, instance_ids=...) builds, without its
                # per-field introspection
                g.stages[exec_id] = ExecStage(
                    exec_id, prior.stage, prior.node, prior.pred_ids,
                    prior.entry_binding, tuple(ids),
                )
        g._chains[iid] = local
        edge = DeliveryEdge(local[p.sink], iid, inst.sub_id, inst.subscriber)
        g._edges[iid] = edge
        insort(
            g._deliveries.setdefault(edge.exec_id, []), edge,
            key=lambda e: e.instance_id,
        )

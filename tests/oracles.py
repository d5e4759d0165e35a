"""Independent reference implementations used to audit the package.

Everything in this module is written from scratch against the documented
behavior and shares no code with the implementation under test: a hop-by-hop
cost evaluator for chain pipelines on path topologies, a plain-dict funnel
interpreter, and the seeded instance generators the audits run over. Two
exceptions are earlier versions of the package kept unchanged as fixed
references: ref_route is the per-call Dijkstra over a full link scan that the
package used before it cached shortest-path trees on each topology snapshot,
and ref_merge_shared_prefix is the from-scratch exec-graph build the package
used before it kept the graph incrementally.

Keep it boring. These references exist so the real implementations have
something to disagree with; cleverness here would defeat the point.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from infersub.broker import PipelineInstance
from infersub.core import LinkDescriptor, Publication, StageSpec, Topic, Topology
from infersub.errors import NoRouteError
from infersub.placement import DeliveryEdge, ExecStage


# ---------------------------------------------------------------------------
# Routing reference: one Dijkstra per call, each expansion scans every link


def ref_up_neighbors(t: Topology, node_id: str) -> list[tuple[str, LinkDescriptor]]:
    out = []
    for link in t.links.values():
        if link.state != "up":
            continue
        if node_id == link.a:
            other = link.b
        elif node_id == link.b:
            other = link.a
        else:
            continue
        if t.is_node_up(other):
            out.append((other, link))
    return sorted(out, key=lambda pair: pair[0])


def ref_route(t: Topology, a: str, b: str) -> list[str]:
    """Minimum-latency up path from a to b.

    Ties go to fewer hops, then the lexicographically smallest node sequence.
    ref_route(t, a, a) == [a].
    """
    if a not in t.nodes or b not in t.nodes:
        raise NoRouteError(a, b)
    if a == b:
        return [a]
    if not t.is_node_up(a) or not t.is_node_up(b):
        raise NoRouteError(a, b)
    heap: list[tuple[Fraction, int, tuple[str, ...]]] = [(Fraction(0), 0, (a,))]
    done: set[str] = set()
    while heap:
        lat, hops, path = heapq.heappop(heap)
        here = path[-1]
        if here == b:
            return list(path)
        if here in done:
            continue
        done.add(here)
        for nxt, link in ref_up_neighbors(t, here):
            if nxt not in done:
                heapq.heappush(
                    heap, (lat + link.latency_ms, hops + 1, path + (nxt,))
                )
    raise NoRouteError(a, b)


def ref_route_latency(t: Topology, a: str, b: str) -> tuple[Fraction, int]:
    """(total latency, hop count) of ref_route(t, a, b)."""
    path = ref_route(t, a, b)
    total = Fraction(0)
    for x, y in zip(path, path[1:]):
        link = t.link_between(x, y)
        assert link is not None
        total += link.latency_ms
    return total, len(path) - 1


# ---------------------------------------------------------------------------
# Exec-graph reference: the whole merged graph rebuilt from scratch, with
# successors and entries found by scanning every stage


@dataclass(frozen=True, eq=False)
class RefExecutionGraph:
    """Instance pipelines merged so each shared prefix stage runs once."""

    stages: dict[str, ExecStage]
    deliveries: tuple[DeliveryEdge, ...]

    def succs(self, exec_id: str) -> list[ExecStage]:
        return sorted(
            (s for s in self.stages.values() if exec_id in s.pred_ids),
            key=lambda s: s.exec_id,
        )

    def entries(self) -> list[ExecStage]:
        return sorted(
            (s for s in self.stages.values() if not s.pred_ids),
            key=lambda s: s.exec_id,
        )


def ref_exec_key_id(
    stage: StageSpec,
    node: str,
    pred_ids: tuple[str, ...],
    entry_binding: tuple[str, str] | None,
) -> str:
    text = repr((stage, node, pred_ids, entry_binding))
    return "x" + hashlib.sha1(text.encode()).hexdigest()[:12]


def ref_merge_shared_prefix(instances: Sequence[PipelineInstance]) -> RefExecutionGraph:
    """Build the merged execution graph over compatible instances.

    Two instances share an execution exactly when the stage spec, assigned
    node, upstream executions, and (for entries) the topic binding coincide;
    anything downstream of a divergence fans out.
    """
    stages: dict[str, ExecStage] = {}
    deliveries: list[DeliveryEdge] = []
    for inst in sorted(instances, key=lambda i: i.instance_id):
        local: dict[str, str] = {}
        for sid in inst.pipeline.topo_order():
            spec = inst.pipeline.stage(sid)
            node = inst.placement.node_of(sid)
            preds = tuple(sorted(local[q] for q in inst.pipeline.preds(sid)))
            binding = inst.entry_bindings.get(sid)
            exec_id = ref_exec_key_id(spec, node, preds, binding)
            local[sid] = exec_id
            prior = stages.get(exec_id)
            if prior is None:
                stages[exec_id] = ExecStage(
                    exec_id, spec, node, preds, binding, (inst.instance_id,)
                )
            elif inst.instance_id not in prior.instance_ids:
                stages[exec_id] = ExecStage(
                    exec_id,
                    spec,
                    node,
                    preds,
                    binding,
                    tuple(sorted(prior.instance_ids + (inst.instance_id,))),
                )
        deliveries.append(
            DeliveryEdge(
                local[inst.pipeline.sink],
                inst.instance_id,
                inst.sub_id,
                inst.subscriber,
            )
        )
    return RefExecutionGraph(stages, tuple(deliveries))


# ---------------------------------------------------------------------------
# Chain/line placement instances


@dataclass(frozen=True)
class LineInstance:
    """A chain pipeline over a path topology n0 - n1 - ... - n_{len-1}.

    Stages are (compute_cost, mem_mb, selectivity, pin) tuples where pin is a
    node index or None. Latencies/bandwidths are per consecutive link.
    """

    node_ids: tuple[str, ...]
    cpu: tuple[Fraction, ...]
    mem: tuple[Fraction, ...]
    link_latency_ms: tuple[Fraction, ...]
    link_bandwidth: tuple[Fraction, ...]
    stages: tuple[tuple[Fraction, Fraction, Fraction, int | None], ...]
    publisher: int
    subscriber: int
    input_size: int
    rate_per_s: Fraction
    alpha: Fraction
    beta: Fraction

    def to_jsonable(self) -> dict:
        return {
            "node_ids": list(self.node_ids),
            "cpu": [str(v) for v in self.cpu],
            "mem": [str(v) for v in self.mem],
            "link_latency_ms": [str(v) for v in self.link_latency_ms],
            "link_bandwidth": [str(v) for v in self.link_bandwidth],
            "stages": [
                [str(c), str(m), str(s), pin] for c, m, s, pin in self.stages
            ],
            "publisher": self.publisher,
            "subscriber": self.subscriber,
            "input_size": self.input_size,
            "rate_per_s": str(self.rate_per_s),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "LineInstance":
        return cls(
            node_ids=tuple(d["node_ids"]),
            cpu=tuple(Fraction(v) for v in d["cpu"]),
            mem=tuple(Fraction(v) for v in d["mem"]),
            link_latency_ms=tuple(Fraction(v) for v in d["link_latency_ms"]),
            link_bandwidth=tuple(Fraction(v) for v in d["link_bandwidth"]),
            stages=tuple(
                (Fraction(c), Fraction(m), Fraction(s), pin)
                for c, m, s, pin in d["stages"]
            ),
            publisher=d["publisher"],
            subscriber=d["subscriber"],
            input_size=d["input_size"],
            rate_per_s=Fraction(d["rate_per_s"]),
            alpha=Fraction(d["alpha"]),
            beta=Fraction(d["beta"]),
        )


def _scaled(size: int, selectivity: Fraction) -> int:
    return max(1, math.ceil(size * selectivity))


def line_chain_cost(
    inst: LineInstance, assignment: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """(latency_ms, bytes_kb) of a chain placement, summed hop by hop.

    assignment[i] is the node index of stage i. On a path topology every
    route is the unique index interval, so this needs no graph search.
    """

    def leg(a: int, b: int, size: int) -> tuple[Fraction, Fraction]:
        lo, hi = min(a, b), max(a, b)
        lat = Fraction(0)
        kb = Fraction(size, 1024)
        moved = Fraction(0)
        for i in range(lo, hi):
            lat += inst.link_latency_ms[i] + kb / inst.link_bandwidth[i]
            moved += kb
        return lat, moved

    latency = Fraction(0)
    bytes_kb = Fraction(0)
    size = inst.input_size
    here = inst.publisher
    for stage_index, (cost_ms, _, selectivity, _) in enumerate(inst.stages):
        there = assignment[stage_index]
        lat, moved = leg(here, there, size)
        latency += lat
        bytes_kb += moved
        latency += cost_ms / inst.cpu[there]
        size = _scaled(size, selectivity)
        here = there
    lat, moved = leg(here, inst.subscriber, size)
    latency += lat
    bytes_kb += moved
    return latency, bytes_kb


def line_chain_objective(
    inst: LineInstance, assignment: tuple[int, ...]
) -> Fraction:
    latency, bytes_kb = line_chain_cost(inst, assignment)
    return inst.alpha * latency + inst.beta * bytes_kb


def line_chain_feasible(
    inst: LineInstance, assignment: tuple[int, ...]
) -> bool:
    """Memory, cpu load, and pin checks; route existence is free on a path."""
    for i, (_, _, _, pin) in enumerate(inst.stages):
        if pin is not None and assignment[i] != pin:
            return False
    per_node_mem: dict[int, Fraction] = {}
    per_node_load: dict[int, Fraction] = {}
    size = inst.input_size
    rate_per_ms = inst.rate_per_s / 1000
    for i, (cost_ms, mem_mb, selectivity, _) in enumerate(inst.stages):
        n = assignment[i]
        per_node_mem[n] = per_node_mem.get(n, Fraction(0)) + mem_mb
        per_node_load[n] = per_node_load.get(n, Fraction(0)) + cost_ms * rate_per_ms
        size = _scaled(size, selectivity)
    for n, used in per_node_mem.items():
        if used > inst.mem[n]:
            return False
    for n, load in per_node_load.items():
        if load > inst.cpu[n]:
            return False
    return True


def line_chain_brute_force(
    inst: LineInstance,
) -> tuple[tuple[int, ...], Fraction] | None:
    """Exhaustive best feasible assignment, ties by the enumeration order
    (lexicographic over node indices). None when nothing is feasible."""
    best: tuple[tuple[int, ...], Fraction] | None = None
    k = len(inst.stages)
    n = len(inst.node_ids)
    for code in range(n**k):
        assignment = []
        rest = code
        for _ in range(k):
            assignment.append(rest % n)
            rest //= n
        combo = tuple(reversed(assignment))
        if not line_chain_feasible(inst, combo):
            continue
        value = line_chain_objective(inst, combo)
        if best is None or value < best[1]:
            best = (combo, value)
    return best


# ---------------------------------------------------------------------------
# Instance generators (seeded; shared by the audits and the committed tables)


def gen_analytic_instance(rng: random.Random) -> LineInstance:
    """The analytic family: uniform cpu, slack capacities, selectivity <= 1,
    latency weight zero, no pins."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 4)
    stages = tuple(
        (
            Fraction(rng.randint(0, 20)),
            Fraction(rng.randint(1, 64)),
            Fraction(rng.randint(1, 10), 10),
            None,
        )
        for _ in range(k)
    )
    rate = Fraction(rng.randint(1, 50))
    # capacities must never bind, even with every stage stacked on one node
    stacked = sum((cost for cost, _, _, _ in stages), Fraction(0)) * rate / 1000
    cpu = Fraction(math.ceil(stacked)) + rng.randint(1, 16)
    positions = rng.sample(range(n), 2)
    return LineInstance(
        node_ids=tuple(f"n{i}" for i in range(n)),
        cpu=(cpu,) * n,
        mem=(Fraction(10**6),) * n,
        link_latency_ms=tuple(
            Fraction(rng.randint(1, 80), 10) for _ in range(n - 1)
        ),
        link_bandwidth=tuple(
            Fraction(rng.randint(50, 2000)) for _ in range(n - 1)
        ),
        stages=stages,
        publisher=positions[0],
        subscriber=positions[1],
        input_size=rng.randint(64, 8192),
        rate_per_s=rate,
        alpha=Fraction(0),
        beta=Fraction(rng.randint(1, 20), 10),
    )


def gen_mixed_instance(rng: random.Random) -> LineInstance:
    """The audit family: varied cpu, sometimes-binding memory, mixed pins,
    selectivities straddling 1, both objective weights positive."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 4)
    positions = rng.sample(range(n), 2)
    stages = []
    for _ in range(k):
        pin: int | None = None
        roll = rng.random()
        if roll < 0.10:
            pin = positions[0]
        elif roll < 0.20:
            pin = positions[1]
        elif roll < 0.25:
            pin = rng.randrange(n)
        stages.append(
            (
                Fraction(rng.randint(0, 30)),
                Fraction(rng.randint(8, 160)),
                Fraction(rng.randint(3, 15), 10),
                pin,
            )
        )
    return LineInstance(
        node_ids=tuple(f"n{i}" for i in range(n)),
        cpu=tuple(Fraction(rng.randint(1, 16)) for _ in range(n)),
        mem=tuple(Fraction(rng.choice([128, 192, 256, 512])) for _ in range(n)),
        link_latency_ms=tuple(
            Fraction(rng.randint(1, 100), 10) for _ in range(n - 1)
        ),
        link_bandwidth=tuple(
            Fraction(rng.randint(20, 1000)) for _ in range(n - 1)
        ),
        stages=tuple(stages),
        publisher=positions[0],
        subscriber=positions[1],
        input_size=rng.randint(64, 8192),
        rate_per_s=Fraction(rng.randint(1, 40)),
        alpha=Fraction(rng.randint(1, 20), 10),
        beta=Fraction(rng.randint(0, 20), 10),
    )


# ---------------------------------------------------------------------------
# Funnel reference interpreter


@dataclass
class RefFunnel:
    """Single funnel as three plain containers and an emission counter.

    mode is "barrier", "count", or "time". The interpreter mirrors the
    documented trigger semantics directly: newest-wins per input under
    barrier, emit-on-nth under count, open-then-drain under time.
    """

    mode: str
    stage_id: str
    out_topic: str
    selectivity: Fraction = Fraction(1)
    fn: str = "concat"
    inputs: tuple[str, ...] = ()
    n: int = 0
    delta_ms: Fraction = Fraction(0)
    slots: dict[str, Publication] = field(default_factory=dict)
    queue: list[tuple[str, Publication]] = field(default_factory=list)
    open_ts: Fraction | None = None
    counter: int = 1

    def _emit(self, items: list[Publication], now: Fraction) -> Publication:
        items = sorted(
            items, key=lambda p: (p.topic.segments, p.source, p.seq)
        )
        if self.fn == "concat":
            payload: tuple[float, ...] = tuple(
                v for p in items for v in p.payload
            )
        elif self.fn == "mean":
            width = min(len(p.payload) for p in items)
            payload = tuple(
                float(
                    sum((Fraction(p.payload[i]) for p in items), Fraction(0))
                    / len(items)
                )
                for i in range(width)
            )
        else:
            raise ValueError(self.fn)
        total = sum(p.size_bytes for p in items)
        out = Publication(
            topic=Topic.parse(self.out_topic),
            source=self.stage_id,
            seq=self.counter,
            ts=now,
            size_bytes=max(1, math.ceil(total * self.selectivity)),
            payload=payload,
            tag="derived",
        )
        self.counter += 1
        self.slots = {}
        self.queue = []
        self.open_ts = None
        return out

    def offer(
        self, p: Publication, now: Fraction, input_id: str | None = None
    ) -> Publication | None:
        if input_id is None:
            input_id = p.source
        if self.mode == "barrier":
            self.slots[input_id] = p
            if set(self.slots) == set(self.inputs):
                return self._emit(list(self.slots.values()), now)
            return None
        if self.mode == "count":
            self.queue.append((input_id, p))
            if len(self.queue) >= self.n:
                return self._emit([q for _, q in self.queue], now)
            return None
        if self.open_ts is None:
            self.open_ts = now
        self.queue.append((input_id, p))
        return None

    def tick(self, now: Fraction) -> Publication | None:
        if self.mode != "time" or self.open_ts is None:
            return None
        if now < self.open_ts + self.delta_ms:
            return None
        return self._emit([q for _, q in self.queue], now)

    def pending_pairs(self) -> set[tuple[str, str, str, int]]:
        """(input_id, topic, source, seq) of everything buffered."""
        if self.mode == "barrier":
            items = list(self.slots.items())
        else:
            items = list(self.queue)
        return {
            (iid, str(p.topic), p.source, p.seq) for iid, p in items
        }


def gen_funnel_script(
    rng: random.Random, inputs: tuple[str, ...]
) -> tuple[dict, list[tuple]]:
    """One random funnel configuration plus a mixed offer/tick script.

    Script entries are ("offer", input_id, publication, now) and
    ("tick", now); timestamps are non-decreasing Fractions.
    """
    mode = rng.choice(["barrier", "count", "time"])
    config = {
        "mode": mode,
        "fn": rng.choice(["concat", "mean"]),
        "selectivity": Fraction(rng.randint(2, 12), 8),
        "inputs": inputs,
        "n": rng.randint(1, 4),
        "delta_ms": Fraction(rng.randint(5, 40)),
    }
    script: list[tuple] = []
    now = Fraction(0)
    seqs = {iid: 0 for iid in inputs}
    for _ in range(rng.randint(1, 12)):
        now += Fraction(rng.randint(0, 200), 10)
        if rng.random() < 0.25:
            script.append(("tick", now))
            continue
        iid = rng.choice(inputs)
        seqs[iid] += 1
        pub = Publication(
            topic=Topic.parse(f"feed/{iid}"),
            source=iid,
            seq=seqs[iid],
            ts=now,
            size_bytes=rng.randint(1, 4096),
            payload=tuple(
                float(rng.randint(-8, 8)) for _ in range(rng.randint(1, 4))
            ),
            tag="raw",
        )
        script.append(("offer", iid, pub, now))
    return config, script

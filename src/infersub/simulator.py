"""Deterministic discrete-event execution of scenarios.

Internally the clock is an integer count of simulated microseconds; every
publication timestamp and latency is derived from it exactly, so a run is a
pure function of (scenario, seed, placer) down to the emitted bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .broker import (
    Broker,
    Delivery,
    ModelFetch,
    PeerLink,
    StageTask,
)
from .core import (
    Filter,
    Funnel,
    Mapping,
    Publication,
    Topic,
    Topology,
    UPDATE_TOPIC_ROOT,
    route,
    route_latency,
)
from .errors import NoRouteError
from .metrics import (
    InstanceMetrics,
    LinkMetrics,
    MetricsReport,
    NodeMetrics,
    StageMetrics,
    SubscriptionMetrics,
    Totals,
)
from .operators import (
    Barrier,
    FunnelState,
    TimeWindow,
    apply_mapping,
    funnel_offer,
    funnel_tick,
    inference_filter,
)
from .placement import WorkloadEntry
from .scenario import Scenario

US_PER_MS = 1000

# event priorities at equal timestamps; lower runs first
PRIO_FAULT_DOWN = 0
PRIO_FAULT_UP = 1
PRIO_HEARTBEAT = 2
PRIO_FETCH = 3
PRIO_HOP = 4
PRIO_JOB = 5
PRIO_FUNNEL = 6
PRIO_ACK = 7
PRIO_PUB = 8


def _ceil_us(ms: Fraction) -> int:
    return -((-ms * US_PER_MS) // 1)


def _ms(us: int) -> Fraction:
    return Fraction(us, US_PER_MS)


def _topic_rng(seed: int, topic: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{topic}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _exp_gap_ms(rng: random.Random, rate_per_ms: Fraction) -> Fraction:
    """One exponential inter-arrival gap, reproducible across platforms.

    The logarithm goes through decimal (correctly rounded per IEEE 754-2008
    semantics) rather than math.log so identical seeds give identical runs
    everywhere.
    """
    u = Fraction(rng.getrandbits(53) + 1, 2 ** 53)
    with localcontext() as ctx:
        ctx.prec = 28
        ln_u = (Decimal(u.numerator) / Decimal(u.denominator)).ln()
    return -Fraction(ln_u) / rate_per_ms


@dataclass(frozen=True)
class _Fault:
    kind: str
    node: str | None = None
    link: tuple[str, str] | None = None


@dataclass(frozen=True)
class _Heartbeat:
    tick: int


@dataclass(frozen=True)
class _FetchDone:
    domain: str
    instance_id: str


@dataclass(frozen=True)
class _Hop:
    transfer_id: int


@dataclass(frozen=True)
class _JobDone:
    node: str
    job_id: int


@dataclass(frozen=True)
class _FunnelFire:
    domain: str
    exec_id: str
    open_us: int


@dataclass(frozen=True)
class _AckDue:
    domain: str
    sub_id: str
    stream: tuple[str, str]
    seq: int
    path: tuple[str, ...]


@dataclass(frozen=True)
class _PubDue:
    topic: str


@dataclass
class _Transfer:
    pub: Publication
    path: tuple[str, ...]
    pos: int  # index of the node the pending hop arrives at
    purpose: str  # "stage" | "delivery" | "submit"
    domain: str
    exec_id: str | None = None
    via: str | None = None
    sub_id: str | None = None
    stream: tuple[str, str] | None = None


@dataclass
class _NodeQ:
    running: int | None = None
    started_us: int = 0
    duration_us: int = 0
    effect: tuple | None = None
    waiting: deque = field(default_factory=deque)


@dataclass
class _TopicState:
    entry: WorkloadEntry
    rng: random.Random | None
    emitted: int = 0
    next_us: int = 0


class _World:
    def __init__(self, sc: Scenario, seed: int, placer: str) -> None:
        self.sc = sc
        self.seed = seed
        self.placer = placer
        self.topo: Topology = sc.topology
        self.end_us = sc.sim.duration_ms * US_PER_MS
        self.now_us = 0
        self.heap: list[tuple[int, int, int, object]] = []
        self._ev_seq = 0
        self.transfers: dict[int, _Transfer] = {}
        self._transfer_seq = 0
        self.nodeq: dict[str, _NodeQ] = {n: _NodeQ() for n in sc.topology.nodes}
        self._job_seq = 0
        self.funnels: dict[tuple[str, str], FunnelState] = {}

        self.pub_seq: dict[str, int] = {}
        self.topic_state: dict[str, _TopicState] = {}

        self.published = 0
        self.delivered: dict[str, int] = {}
        self.dups: dict[str, int] = {}
        self.filtered: dict[str, int] = {}
        self.latencies: dict[str, list[Fraction]] = {}
        self.applied: dict[str, list[int]] = {}
        self.seen: dict[tuple[str, tuple[str, str]], set[int]] = {}
        self.link_kb: dict[tuple[str, str], Fraction] = {}
        self.busy_us: dict[str, int] = {n: 0 for n in sc.topology.nodes}
        self.exec_counts: dict[str, int] = {}
        self.exec_meta: dict[str, tuple[str, str]] = {}
        self.raw_crossings = 0
        self.trace: list[tuple[int, str, str, str, str, int, str]] = []
        self.lost_transfers = 0

        self.failure_us: dict[str, int] = {}
        self.miss_count: dict[str, int] = {}
        self.handled: set[str] = set()
        self.pending_repairs: dict[str, list[tuple[str, int]]] = {}
        self.recovery_us: dict[str, list[int]] = {}

        self.brokers: dict[str, Broker] = {}
        self._build_brokers()

    # -- construction ------------------------------------------------------

    def _build_brokers(self) -> None:
        sc = self.sc
        for domain in sorted(sc.brokers):
            bindings = {
                t: n for t, n in sc.bindings.items()
                if self.topo.node(n).domain_id == domain
            }
            trainers = {
                sm.model.model_id: sm.trainers
                for sm in sc.models
                if sm.domain_id == domain and sm.trainers
            }
            artifacts = {
                sm.model.model_id: sm.artifact_kb
                for sm in sc.models
                if sm.domain_id == domain and sm.artifact_kb is not None
            }
            self.brokers[domain] = Broker(
                domain, sc.brokers[domain], bindings,
                trainers=trainers, artifact_kb=artifacts, placer=self.placer,
            )
        for sm in sorted(sc.models, key=lambda m: (m.domain_id, m.model.model_id)):
            self.brokers[sm.domain_id].register_model(sm.model)
        for peer in sc.peers:
            d0, d1 = peer.domains
            link = self.topo.link_between(*peer.link)
            assert link is not None
            self.brokers[d0].link_peer(PeerLink(d1, link), self.brokers[d1])
            self.brokers[d1].link_peer(PeerLink(d0, link), self.brokers[d0])

    def start(self) -> None:
        sc = self.sc
        for sub in sorted(sc.subscriptions, key=lambda s: s.sub_id):
            domain = self.topo.node(sub.subscriber).domain_id
            _, actions = self.brokers[domain].subscribe(
                sub, self.topo, sc.workload, sc.objective, Fraction(0)
            )
            self._do_actions(domain, actions)
        for topic in sorted(sc.workload.topics):
            entry = sc.workload.topics[topic]
            start_us = entry.start_ms * US_PER_MS
            if entry.periodic:
                st = _TopicState(entry, None, 0, start_us)
            else:
                rng = _topic_rng(self.seed, topic)
                gap = _exp_gap_ms(rng, entry.rate_per_s / 1000)
                st = _TopicState(entry, rng, 0, start_us + max(1, _ceil_us(gap)))
            self.topic_state[topic] = st
            if st.next_us <= self.end_us:
                self._push(st.next_us, PRIO_PUB, _PubDue(topic))
        hb_us = sc.sim.heartbeat_ms * US_PER_MS
        tick = 1
        while tick * hb_us <= self.end_us:
            self._push(tick * hb_us, PRIO_HEARTBEAT, _Heartbeat(tick))
            tick += 1
        for fault in sc.faults:
            at = _ceil_us(fault.at_ms)
            prio = PRIO_FAULT_DOWN if fault.kind.endswith("_down") else PRIO_FAULT_UP
            if at <= self.end_us:
                self._push(at, prio, _Fault(fault.kind, fault.node, fault.link))

    # -- event plumbing ----------------------------------------------------

    def _push(self, t_us: int, prio: int, ev: object) -> None:
        self._ev_seq += 1
        heapq.heappush(self.heap, (t_us, prio, self._ev_seq, ev))

    def run_loop(self) -> None:
        while self.heap:
            t, _, _, ev = heapq.heappop(self.heap)
            if t > self.end_us:
                break
            self.now_us = t
            if isinstance(ev, _Fault):
                self._on_fault(ev)
            elif isinstance(ev, _Heartbeat):
                self._on_heartbeat()
            elif isinstance(ev, _FetchDone):
                self.brokers[ev.domain].activate_instance(ev.instance_id)
            elif isinstance(ev, _Hop):
                self._on_hop(ev.transfer_id)
            elif isinstance(ev, _JobDone):
                self._on_job_done(ev.node, ev.job_id)
            elif isinstance(ev, _FunnelFire):
                self._on_funnel_fire(ev)
            elif isinstance(ev, _AckDue):
                self._on_ack_due(ev)
            elif isinstance(ev, _PubDue):
                self._on_pub_due(ev.topic)
            else:  # pragma: no cover
                raise AssertionError(f"unknown event {ev!r}")

    # -- actions and transfers ---------------------------------------------

    def _do_actions(self, domain: str, actions: list) -> None:
        for act in actions:
            if isinstance(act, Delivery):
                self._send(
                    domain, "delivery", act.origin, act.subscriber, act.pub,
                    sub_id=act.sub_id, stream=act.stream,
                )
            elif isinstance(act, StageTask):
                self._send(
                    domain, "stage", act.origin, act.node, act.pub,
                    exec_id=act.exec_id, via=act.via_stage,
                )
            elif isinstance(act, ModelFetch):
                ends = act.bridge
                link = self.topo.link_between(*ends)
                assert link is not None
                kb = Fraction(act.artifact_kb)
                self.link_kb[link.ends] = self.link_kb.get(link.ends, Fraction(0)) + kb
                dur = _ceil_us(link.latency_ms + kb / link.bandwidth_kb_per_ms)
                self._push(self.now_us + dur, PRIO_FETCH,
                           _FetchDone(domain, act.instance_id))
            else:  # pragma: no cover
                raise AssertionError(f"unknown action {act!r}")

    def _send(
        self,
        domain: str,
        purpose: str,
        origin: str,
        dest: str,
        pub: Publication,
        exec_id: str | None = None,
        via: str | None = None,
        sub_id: str | None = None,
        stream: tuple[str, str] | None = None,
    ) -> None:
        try:
            path = tuple(route(self.topo, origin, dest))
        except NoRouteError:
            self.lost_transfers += 1
            return
        self._transfer_seq += 1
        tid = self._transfer_seq
        tr = _Transfer(pub, path, 0, purpose, domain, exec_id, via, sub_id, stream)
        self.transfers[tid] = tr
        if len(path) == 1:
            self._push(self.now_us, PRIO_HOP, _Hop(tid))
        else:
            self._start_leg(tid, tr)

    def _start_leg(self, tid: int, tr: _Transfer) -> None:
        a, b = tr.path[tr.pos], tr.path[tr.pos + 1]
        if not self.topo.is_link_up(a, b):
            del self.transfers[tid]
            self.lost_transfers += 1
            return
        link = self.topo.link_between(a, b)
        assert link is not None
        kb = Fraction(tr.pub.size_bytes, 1024)
        self.link_kb[link.ends] = self.link_kb.get(link.ends, Fraction(0)) + kb
        if tr.pub.tag == "raw":
            self.raw_crossings += 1
        self.trace.append((
            self.now_us, a, b, str(tr.pub.topic), tr.pub.source, tr.pub.seq,
            tr.pub.tag,
        ))
        dur = _ceil_us(link.latency_ms + kb / link.bandwidth_kb_per_ms)
        tr.pos += 1
        self._push(self.now_us + dur, PRIO_HOP, _Hop(tid))

    def _on_hop(self, tid: int) -> None:
        tr = self.transfers.get(tid)
        if tr is None:
            return
        node = tr.path[tr.pos]
        if not self.topo.is_node_up(node):
            del self.transfers[tid]
            self.lost_transfers += 1
            return
        if tr.pos < len(tr.path) - 1:
            self._start_leg(tid, tr)
            return
        del self.transfers[tid]
        self._arrive(tr)

    def _arrive(self, tr: _Transfer) -> None:
        if tr.purpose == "delivery":
            assert tr.sub_id is not None and tr.stream is not None
            self._deliver_local(tr.domain, tr.sub_id, tr.stream, tr.pub)
        elif tr.purpose == "stage":
            broker = self.brokers[tr.domain]
            assert tr.exec_id is not None
            ex = broker.exec_graph.stages.get(tr.exec_id)
            if ex is None:
                self.lost_transfers += 1
                return
            if isinstance(ex.stage.kind, Funnel):
                self._offer(tr.domain, ex, tr.pub, tr.via)
            else:
                self._enqueue_stage(tr.domain, ex, tr.pub)
        elif tr.purpose == "submit":
            broker = self.brokers[tr.domain]
            actions = broker.on_publish(tr.pub, _ms(self.now_us))
            self._do_actions(tr.domain, actions)
        else:  # pragma: no cover
            raise AssertionError(tr.purpose)

    # -- compute queues ----------------------------------------------------

    def _duration_us(self, ex) -> int:
        cap = self.topo.node(ex.node).cpu_capacity
        return _ceil_us(Fraction(ex.stage.compute_cost) / Fraction(cap))

    def _enqueue_stage(self, domain: str, ex, pub: Publication) -> None:
        effect = ("mapfilter", domain, ex.exec_id, ex.stage.stage_id, ex.node, pub)
        self._enqueue(ex.node, self._duration_us(ex), effect)

    def _enqueue(self, node: str, dur_us: int, effect: tuple) -> None:
        q = self.nodeq[node]
        self._job_seq += 1
        jid = self._job_seq
        if q.running is None:
            q.running = jid
            q.started_us = self.now_us
            q.duration_us = dur_us
            q.effect = effect
            self._push(self.now_us + dur_us, PRIO_JOB, _JobDone(node, jid))
        else:
            q.waiting.append((jid, dur_us, effect))

    def _on_job_done(self, node: str, job_id: int) -> None:
        q = self.nodeq[node]
        if q.running != job_id:
            return  # the node went down while this job was queued or running
        self.busy_us[node] += q.duration_us
        effect = q.effect
        q.running = None
        q.effect = None
        if q.waiting:
            jid, dur, eff = q.waiting.popleft()
            q.running = jid
            q.started_us = self.now_us
            q.duration_us = dur
            q.effect = eff
            self._push(self.now_us + dur, PRIO_JOB, _JobDone(node, jid))
        assert effect is not None
        self._apply_effect(effect)

    def _apply_effect(self, effect: tuple) -> None:
        kind, domain, exec_id, stage_id, node, pub = effect
        self.exec_counts[exec_id] = self.exec_counts.get(exec_id, 0) + 1
        self.exec_meta[exec_id] = (stage_id, node)
        broker = self.brokers[domain]
        ex = broker.exec_graph.stages.get(exec_id)
        if ex is None:
            return  # repaired away mid-compute; replay covers the stream
        if kind == "emit":
            self._fan_out(domain, ex, pub)
            return
        stage = ex.stage
        if isinstance(stage.kind, Mapping):
            self._fan_out(domain, ex, apply_mapping(stage, pub))
            return
        assert isinstance(stage.kind, Filter)
        out = inference_filter(stage, pub)
        if out is None:
            stream = (pub.source, str(pub.topic))
            subs = self._live_subs(broker, ex)
            for sub_id in subs:
                self.filtered[sub_id] = self.filtered.get(sub_id, 0) + 1
            broker.consume_buffered(subs, stream, pub.seq)
            return
        self._fan_out(domain, ex, out)

    def _live_subs(self, broker: Broker, ex) -> list[str]:
        return sorted(
            broker.instances[iid].sub_id
            for iid in ex.instance_ids
            if broker.instances[iid].status == "active"
        )

    def _fan_out(self, domain: str, ex, pub: Publication) -> None:
        broker = self.brokers[domain]
        for succ in broker.exec_graph.succs(ex.exec_id):
            self._send(
                domain, "stage", ex.node, succ.node, pub,
                exec_id=succ.exec_id, via=ex.stage.stage_id,
            )
        for de in broker.exec_graph.deliveries:
            if de.exec_id != ex.exec_id:
                continue
            if broker.instances[de.instance_id].status != "active":
                continue
            self._send(
                domain, "delivery", ex.node, de.subscriber, pub,
                sub_id=de.sub_id, stream=(pub.source, str(pub.topic)),
            )

    # -- funnels -----------------------------------------------------------

    def _funnel_state(self, broker: Broker, ex) -> FunnelState:
        key = (broker.domain_id, ex.exec_id)
        st = self.funnels.get(key)
        if st is None:
            st = FunnelState(
                stage=ex.stage,
                out_topic=Topic(("pipe", ex.stage.stage_id)),
                next_seq=broker.funnel_seed(ex.exec_id),
            )
            self.funnels[key] = st
        return st

    def _offer(self, domain: str, ex, pub: Publication, via: str | None) -> None:
        broker = self.brokers[domain]
        st = self._funnel_state(broker, ex)
        input_id = via if via is not None else pub.source
        superseded = None
        if isinstance(st.policy, Barrier):
            for iid, old in st.pending:
                if iid == input_id:
                    superseded = old
                    break
        before = st.pending
        st2, emission = funnel_offer(st, pub, _ms(self.now_us), input_id=input_id)
        key = (domain, ex.exec_id)
        if (
            isinstance(st.policy, TimeWindow)
            and st.window_open_ts is None
            and st2.window_open_ts is not None
        ):
            self._push(
                self.now_us + st.policy.delta_ms * US_PER_MS,
                PRIO_FUNNEL,
                _FunnelFire(domain, ex.exec_id, self.now_us),
            )
        self.funnels[key] = st2
        subs = self._live_subs(broker, ex)
        if superseded is not None:
            for sub_id in subs:
                self.filtered[sub_id] = self.filtered.get(sub_id, 0) + 1
            broker.consume_buffered(
                subs, (superseded.source, str(superseded.topic)), superseded.seq
            )
        if emission is not None:
            consumed = [p for _, p in before if p is not superseded] + [pub]
            for c in consumed:
                broker.consume_buffered(subs, (c.source, str(c.topic)), c.seq)
            self._emit(domain, ex, emission)

    def _on_funnel_fire(self, ev: _FunnelFire) -> None:
        broker = self.brokers[ev.domain]
        ex = broker.exec_graph.stages.get(ev.exec_id)
        if ex is None or not self.topo.is_node_up(ex.node):
            return
        key = (ev.domain, ev.exec_id)
        st = self.funnels.get(key)
        if st is None or st.window_open_ts != _ms(ev.open_us):
            return  # stale timer from a window that already closed
        st2, emission = funnel_tick(st, _ms(self.now_us))
        self.funnels[key] = st2
        if emission is not None:
            subs = self._live_subs(broker, ex)
            for _, c in st.pending:
                broker.consume_buffered(subs, (c.source, str(c.topic)), c.seq)
            self._emit(ev.domain, ex, emission)

    def _emit(self, domain: str, ex, emission: Publication) -> None:
        broker = self.brokers[domain]
        succs = broker.exec_graph.succs(ex.exec_id)
        reentry = succs[0].stage.stage_id if succs else None
        broker.buffer_emission(
            ex.exec_id, ex.instance_ids, emission, reentry, ex.stage.stage_id
        )
        effect = ("emit", domain, ex.exec_id, ex.stage.stage_id, ex.node, emission)
        self._enqueue(ex.node, self._duration_us(ex), effect)

    # -- subscriber side ---------------------------------------------------

    def _deliver_local(
        self, domain: str, sub_id: str, stream: tuple[str, str], pub: Publication
    ) -> None:
        broker = self.brokers[domain]
        if sub_id not in broker.subs:
            return
        key = (sub_id, stream)
        seen = self.seen.setdefault(key, set())
        if pub.seq in seen:
            self.dups[sub_id] = self.dups.get(sub_id, 0) + 1
        else:
            seen.add(pub.seq)
            self.delivered[sub_id] = self.delivered.get(sub_id, 0) + 1
            self.latencies.setdefault(sub_id, []).append(_ms(self.now_us) - pub.ts)
            if pub.semantic_tag in ("model-update", "model-snapshot"):
                versions = self.applied.setdefault(sub_id, [])
                if not versions or pub.seq > versions[-1]:
                    versions.append(pub.seq)
        subscriber = broker.subs[sub_id].subscriber
        try:
            path = tuple(route(self.topo, subscriber, broker.broker_node))
        except NoRouteError:
            return
        delay, _ = route_latency(self.topo, subscriber, broker.broker_node)
        self._push(
            self.now_us + _ceil_us(delay), PRIO_ACK,
            _AckDue(domain, sub_id, stream, pub.seq, path),
        )

    def _on_ack_due(self, ev: _AckDue) -> None:
        if len(ev.path) == 1:
            if not self.topo.is_node_up(ev.path[0]):
                return
        else:
            for a, b in zip(ev.path, ev.path[1:]):
                if not self.topo.is_link_up(a, b):
                    return
        broker = self.brokers[ev.domain]
        if ev.sub_id not in broker.subs:
            return
        broker.on_ack(ev.sub_id, ev.seq, ev.stream)

    # -- workload ----------------------------------------------------------

    def _on_pub_due(self, topic: str) -> None:
        st = self.topic_state[topic]
        entry = st.entry
        publisher = self.sc.bindings[topic]
        emit_now = self.topo.is_node_up(publisher)
        if emit_now:
            seq = self.pub_seq.get(topic, 0) + 1
            self.pub_seq[topic] = seq
            pub = Publication(
                topic=Topic.parse(topic),
                source=publisher,
                seq=seq,
                ts=_ms(self.now_us),
                size_bytes=entry.size_bytes,
                payload=entry.payload,
                tag="raw",
                semantic_tag=entry.semantic_tag,
            )
            self.published += 1
            domain = self.topo.node(publisher).domain_id
            if topic.split("/")[0] == UPDATE_TOPIC_ROOT:
                broker = self.brokers[domain]
                self._send(
                    domain, "submit", publisher, broker.broker_node, pub
                )
            else:
                actions = self.brokers[domain].on_publish(pub, pub.ts)
                self._do_actions(domain, actions)
        st.emitted += 1
        if entry.count is not None and st.emitted >= entry.count:
            return
        if entry.periodic:
            period = Fraction(1000, 1) / entry.rate_per_s
            nxt = entry.start_ms * US_PER_MS + _ceil_us(st.emitted * period)
        else:
            assert st.rng is not None
            gap = _exp_gap_ms(st.rng, entry.rate_per_s / 1000)
            nxt = st.next_us + max(1, _ceil_us(gap))
        st.next_us = nxt
        if nxt <= self.end_us:
            self._push(nxt, PRIO_PUB, _PubDue(topic))

    # -- faults and repair -------------------------------------------------

    def _on_fault(self, ev: _Fault) -> None:
        if ev.kind == "node_down":
            assert ev.node is not None
            if not self.topo.is_node_up(ev.node):
                return
            self.topo = self.topo.with_node_state(ev.node, False)
            self.failure_us[ev.node] = self.now_us
            q = self.nodeq[ev.node]
            if q.running is not None:
                self.busy_us[ev.node] += self.now_us - q.started_us
            q.running = None
            q.effect = None
            q.waiting.clear()
            for key in sorted(self.funnels):
                domain, exec_id = key
                ex = self.brokers[domain].exec_graph.stages.get(exec_id)
                if ex is not None and ex.node == ev.node:
                    del self.funnels[key]
        elif ev.kind == "node_up":
            assert ev.node is not None
            if self.topo.is_node_up(ev.node):
                return
            self.topo = self.topo.with_node_state(ev.node, True)
            self.miss_count.pop(ev.node, None)
            self.handled.discard(ev.node)
            self.failure_us.pop(ev.node, None)
            for domain in sorted(self.brokers):
                if self.brokers[domain].broker_node != ev.node:
                    continue
                for failed, fail_us in self.pending_repairs.pop(domain, []):
                    self._run_repair(domain, failed, fail_us)
        elif ev.kind == "link_down":
            assert ev.link is not None
            self.topo = self.topo.with_link_state(*ev.link, False)
        elif ev.kind == "link_up":
            assert ev.link is not None
            self.topo = self.topo.with_link_state(*ev.link, True)
        else:  # pragma: no cover
            raise AssertionError(ev.kind)

    def _on_heartbeat(self) -> None:
        misses = self.sc.sim.heartbeat_misses
        for node in sorted(self.topo.down_nodes):
            self.miss_count[node] = self.miss_count.get(node, 0) + 1
            if self.miss_count[node] < misses or node in self.handled:
                continue
            self.handled.add(node)
            fail_us = self.failure_us.get(node, self.now_us)
            for domain in sorted(self.brokers):
                broker = self.brokers[domain]
                if not self.topo.is_node_up(broker.broker_node):
                    self.pending_repairs.setdefault(domain, []).append((node, fail_us))
                else:
                    self._run_repair(domain, node, fail_us)

    def _run_repair(self, domain: str, failed: str, fail_us: int) -> None:
        if self.topo.is_node_up(failed):
            return  # blip ended before detection completed
        broker = self.brokers[domain]
        plan = broker.on_node_failure(
            failed, self.topo, self.sc.workload, self.sc.objective, _ms(self.now_us)
        )
        for iid in plan.affected:
            self.recovery_us.setdefault(iid, []).append(self.now_us - fail_us)
        dispatched: set[tuple[str, tuple[str, str], int]] = set()
        for sub_id in sorted(plan.replays):
            sub = broker.subs[sub_id]
            for e in plan.replays[sub_id]:
                if e.reentry_stage is None:
                    self._send(
                        domain, "delivery", broker.broker_node, sub.subscriber,
                        e.pub, sub_id=sub_id, stream=e.stream,
                    )
                    continue
                assert e.instance_id is not None
                ex = broker.exec_for(e.instance_id, e.reentry_stage)
                if ex is None:
                    continue
                dkey = (ex.exec_id, e.stream, e.seq)
                if dkey in dispatched:
                    continue  # prefix shared: one physical replay feeds all
                dispatched.add(dkey)
                self._send(
                    domain, "stage", broker.broker_node, ex.node, e.pub,
                    exec_id=ex.exec_id, via=e.via_stage,
                )

    # -- report ------------------------------------------------------------

    def report(self) -> MetricsReport:
        sc = self.sc
        subs_out = []
        all_subs: list[tuple[str, Broker]] = []
        for domain in sorted(self.brokers):
            broker = self.brokers[domain]
            for sub_id in sorted(broker.subs):
                all_subs.append((sub_id, broker))
        all_subs.sort(key=lambda x: x[0])
        for sub_id, broker in all_subs:
            lats = sorted(self.latencies.get(sub_id, []))
            if lats:
                mean = float(sum(lats) / len(lats))
                rank = -((-95 * len(lats)) // 100)  # ceil, nearest-rank p95
                p95 = float(lats[rank - 1])
            else:
                mean = None
                p95 = None
            subs_out.append(SubscriptionMetrics(
                sub_id=sub_id,
                accepted=broker.accept_counts.get(sub_id, 0),
                delivered=self.delivered.get(sub_id, 0),
                dup_suppressed=self.dups.get(sub_id, 0),
                dropped=broker.drop_counts.get(sub_id, 0),
                filtered=self.filtered.get(sub_id, 0),
                end_buffered=len(broker.buffers.get(sub_id, [])),
                mean_latency_ms=mean,
                p95_latency_ms=p95,
                applied_versions=tuple(self.applied.get(sub_id, [])),
            ))
        bridge_ends = {tuple(sorted(p.link)) for p in sc.peers}
        links_out = []
        for ends in sorted(sc.topology.links):
            links_out.append(LinkMetrics(
                a=ends[0], b=ends[1],
                kb=float(self.link_kb.get(ends, Fraction(0))),
                bridge=ends in bridge_ends,
            ))
        nodes_out = []
        for node in sorted(sc.topology.nodes):
            busy = self.busy_us[node]
            nodes_out.append(NodeMetrics(
                node_id=node,
                busy_ms=float(Fraction(busy, 1000)),
                utilization=float(Fraction(busy, self.end_us)),
            ))
        meta = dict(self.exec_meta)
        for domain in sorted(self.brokers):
            for ex in self.brokers[domain].exec_graph.stages.values():
                meta.setdefault(ex.exec_id, (ex.stage.stage_id, ex.node))
        stages_out = []
        for exec_id in sorted(meta):
            stage_id, node = meta[exec_id]
            stages_out.append(StageMetrics(
                exec_id=exec_id, stage_id=stage_id, node=node,
                executions=self.exec_counts.get(exec_id, 0),
            ))
        instances_out = []
        repairs_total = 0
        suspended_total = 0
        for domain in sorted(self.brokers):
            broker = self.brokers[domain]
            for iid in sorted(broker.instances):
                inst = broker.instances[iid]
                repairs_total += inst.repairs
                suspended = inst.status == "suspended"
                suspended_total += int(suspended)
                instances_out.append(InstanceMetrics(
                    instance_id=iid,
                    sub_id=inst.sub_id,
                    repairs=inst.repairs,
                    suspended=suspended,
                    recovery_ms=tuple(
                        float(Fraction(us, 1000))
                        for us in self.recovery_us.get(iid, [])
                    ),
                ))
        totals = Totals(
            published=self.published,
            delivered=sum(s.delivered for s in subs_out),
            dup_suppressed=sum(s.dup_suppressed for s in subs_out),
            dropped=sum(s.dropped for s in subs_out),
            filtered=sum(s.filtered for s in subs_out),
            kb=float(sum(self.link_kb.values(), Fraction(0))),
            executions=sum(self.exec_counts.values()),
            repairs=repairs_total,
            suspended=suspended_total,
            raw_link_crossings=self.raw_crossings,
        )
        return MetricsReport(
            duration_ms=float(sc.sim.duration_ms),
            seed=self.seed,
            placer=self.placer,
            subscriptions=tuple(subs_out),
            links=tuple(links_out),
            nodes=tuple(nodes_out),
            stages=tuple(stages_out),
            instances=tuple(instances_out),
            totals=totals,
        )


def simulate(sc: Scenario, seed: int | None = None, placer: str = "upstream") -> _World:
    """Run to completion and keep the world around for inspection."""
    world = _World(sc, sc.sim.seed if seed is None else seed, placer)
    world.start()
    world.run_loop()
    return world


def run(sc: Scenario, seed: int | None = None, placer: str = "upstream") -> MetricsReport:
    """Execute the scenario and summarize it."""
    return simulate(sc, seed, placer).report()


def compare(sc: Scenario, seed: int | None = None) -> dict[str, MetricsReport]:
    """The same workload under cost-aware and all-at-subscriber placement."""
    return {
        "upstream": run(sc, seed, "upstream"),
        "baseline": run(sc, seed, "baseline"),
    }

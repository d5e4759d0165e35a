"""Deterministic discrete-event execution of scenarios.

Internally the clock is an integer count of simulated microseconds; every
publication timestamp and latency is derived from it exactly, so a run is a
pure function of (scenario, seed, placer) down to the emitted bytes.

Links have no queue and every fault is scheduled at start, so a transfer's
arrival µs and fate are known when it is sent: `_World._send` pushes one
event per transfer, at its arrival, and the run is the one that forwarding
hop by hop gives.

* Plans: a transfer's route and hop arrival offsets depend only on the
  snapshot and the (origin, dest, size), so each is planned once per
  snapshot. A transfer that arrives by the run's end and before the next
  fault takes its whole plan at once: one count per (path, size), which the
  report expands into link bytes. Only the others walk it hop by hop.
* Fate: a transfer drops at the first node j it reaches where, after every
  fault up to that µs, j, the link to the next node or that node is down.
  Faults set states, never toggle them, so replaying the pending ones onto
  the down nodes decides this; a route is up when taken, so a transfer
  with no fault in its span needs no check.
* Order: events run by (µs, prio, key), the key being the push counter n
  except for arrivals. At µs t the events below PRIO_HOP run first (all
  pushed before t, save fetches, which push nothing), then the hops pushed
  before t in key order, then the rest. So a push made while handling an
  event at t gets the key (t, 0, n) from the first kind, (t, 1) + key + (n,)
  from an arrival with that key pushed before t, and (t, 2, n) from the
  rest, and a hop skipped at t turns a key into (t, 1) + key + (0,). As a
  leg lasts at least 1 µs (a publication has at least 1 byte, a link finite
  bandwidth), a skipped hop is always among the hops pushed before its µs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
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
)
# route is unused here, but perfbench/spans.py patches simulator.route
from .core import route  # noqa: F401
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
    apply_mapping,
    funnel_offer,
    funnel_tick,
    inference_filter,
)
from .placement import TransferMemo, WorkloadEntry
from .scenario import Scenario

US_PER_MS = 1000
US_PER_S = 1000 * US_PER_MS
_TWO_53 = Decimal(2 ** 53)

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


def _exp_gap_us(rng: random.Random, rate_per_s: Fraction) -> int:
    """One exponential inter-arrival gap in whole µs, at least 1, reproducible
    across platforms.

    The gap is defined through decimal (correctly rounded per IEEE 754-2008
    semantics), not math.log, so identical seeds give identical runs
    everywhere: with u = (getrandbits(53) + 1) / 2^53 and ln(u) the 28-digit
    decimal n / d, it is max(1, ceil(-n * 10^6 / (d * rate))) µs, in ints.

    A float filter answers first when it provably agrees, the filter-then-exact
    scheme of adaptive-precision predicates (Shewchuk 1997). u is exact in a
    float and s = 10^6 / rate is correctly rounded, so x = -log(u) * s errs
    from the true gap g by a few ulps plus s times libm's error on log. The
    decimal gap errs from g by under 10^-27 * g (the rounded ln) plus
    10^-27 * s (u rounded to 28 digits). So when x lies farther than the
    guard x * 2^-40 + s * 2^-50 from every integer, no integer lies between x
    and the decimal gap, and both round up to the same integer on any libm
    whose log errs by less than 2^-42 relative plus 2^-51 absolute (common
    libms err by about one ulp). Otherwise, or when x is not finite or is at
    least 2^52 (no fraction bits left), the decimal path decides.
    """
    u = rng.getrandbits(53) + 1
    try:
        scale = US_PER_S * rate_per_s.denominator / rate_per_s.numerator
    except OverflowError:  # a gap beyond any float; the decimal path decides
        scale = math.inf
    x = -math.log(u * 2.0 ** -53) * scale
    if x < 2.0 ** 52:
        frac = x - math.floor(x)
        guard = x * 2.0 ** -40 + scale * 2.0 ** -50
        if guard < frac < 1 - guard:
            return max(1, math.ceil(x))
    with localcontext() as ctx:
        ctx.prec = 28
        n, d = (Decimal(u) / _TWO_53).ln().as_integer_ratio()
    return max(1, -(n * US_PER_S * rate_per_s.denominator // (d * rate_per_s.numerator)))


def _periodic_us(emitted: int, rate_per_s: Fraction) -> int:
    """µs from a periodic topic's start to its publication after emitted
    ones: ceil(emitted * 10^6 / rate)."""
    return -(-emitted * US_PER_S * rate_per_s.denominator // rate_per_s.numerator)


def _latency_stats(hist: dict[int, int]) -> tuple[float | None, float | None]:
    """(mean, nearest-rank p95) in ms of µs latencies kept as {µs: count};
    Nones for no latency."""
    if not hist:
        return None, None
    n = sum(hist.values())
    rank = -((-95 * n) // 100)  # ceil
    for us in sorted(hist):
        rank -= hist[us]
        if rank <= 0:
            break
    return (
        float(Fraction(sum(us * c for us, c in hist.items()), US_PER_MS * n)),
        float(Fraction(us, US_PER_MS)),
    )


class _Seqs:
    """The seqs one stream has delivered: the run lo..hi, plus the others.

    A stream delivered in order keeps others empty, so memory follows how far
    out of order seqs arrive, not how many do. Iterating yields every seq.
    """

    __slots__ = ("lo", "hi", "others")

    def __init__(self, lo: int) -> None:
        """No seq yet; the run starts at lo once lo arrives."""
        self.lo = lo
        self.hi = lo - 1
        self.others: set[int] = set()

    def add(self, seq: int) -> bool:
        """Record seq; False when it was already delivered."""
        if self.lo <= seq <= self.hi or seq in self.others:
            return False
        if seq != self.hi + 1:
            self.others.add(seq)
            return True
        hi = seq
        while hi + 1 in self.others:
            hi += 1
            self.others.remove(hi)
        self.hi = hi
        return True

    def __iter__(self):
        yield from range(self.lo, self.hi + 1)
        yield from self.others

    def __len__(self) -> int:
        return self.hi - self.lo + 1 + len(self.others)


@dataclass
class _Node:
    """What a node holds, all of it lost when the node fails: its running
    and waiting jobs, its funnel states, and while it is down, the µs it
    failed at and the heartbeats it has missed since."""

    # a job is (µs, (domain, ex, pub)): one run of exec stage ex on pub
    running: tuple | None = None
    started_us: int = 0
    waiting: deque = field(default_factory=deque)
    funnels: dict[tuple[str, str], FunnelState] = field(default_factory=dict)
    failed_us: int = 0
    missed: int = 0


# How a transfer of one size crosses one snapshot: (path, arrivals, total),
# the route's path shared with Topology.shortest, the µs after sending at
# which it reaches each node after the first, and the last of them (0 for a
# transfer that stays on its node). A plain tuple: in a run whose transfers
# rarely repeat, every transfer builds one
_Plan = tuple[tuple[str, ...], tuple[int, ...], int]
_UNPLANNED = object()  # no plan made yet; None is the plan of no route


@dataclass
class _TopicState:
    topic: Topic  # parsed once; every publication on it shares it
    entry: WorkloadEntry
    rng: random.Random | None
    emitted: int = 0
    next_us: int = 0


def compile_scenario(
    sc: Scenario, placer: str, memo: TransferMemo | None = None
) -> tuple[dict[str, Broker], list[tuple[str, list]]]:
    """Build one broker per domain and subscribe every subscription.

    Returns the brokers by domain and, in sub-id order, the (domain, actions)
    that each subscribe produced, for the caller to carry out or ignore.
    Every placement search of the compile shares one TransferMemo: the
    transfer and compute terms per tick unit, the node budgets, one _Shape
    per pipeline shape (its workload derivation, for every subscription of
    that shape), the objective weights and the score of each placement a
    search returned.
    It is freed on return unless the caller passed it in to read the scores
    from.
    """
    topo = sc.topology
    if memo is None:
        memo = TransferMemo(topo)
    brokers: dict[str, Broker] = {}
    for domain in sorted(sc.brokers):
        bindings = {
            t: n for t, n in sc.bindings.items()
            if topo.node(n).domain_id == domain
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
        brokers[domain] = Broker(
            domain, sc.brokers[domain], bindings,
            trainers=trainers, artifact_kb=artifacts, placer=placer,
        )
    for sm in sorted(sc.models, key=lambda m: (m.domain_id, m.model.model_id)):
        brokers[sm.domain_id].register_model(sm.model)
    for peer in sc.peers:
        d0, d1 = peer.domains
        link = topo.link_between(*peer.link)
        assert link is not None
        brokers[d0].link_peer(PeerLink(d1, link), brokers[d1])
        brokers[d1].link_peer(PeerLink(d0, link), brokers[d0])
    actions = []
    for sub in sorted(sc.subscriptions, key=lambda s: s.sub_id):
        domain = topo.node(sub.subscriber).domain_id
        _, acts = brokers[domain].subscribe(
            sub, topo, sc.workload, sc.objective, memo=memo
        )
        actions.append((domain, acts))
    return brokers, actions


class _World:
    def __init__(self, sc: Scenario, seed: int, placer: str) -> None:
        self.sc = sc
        self.seed = seed
        self.placer = placer
        self.topo: Topology = sc.topology
        self.end_us = sc.sim.duration_ms * US_PER_MS
        self.now_us = 0
        self.heap: list[tuple] = []  # (t_us, prio, key, handler, args)
        self._ev_seq = 0
        # prio and key of the event being handled, at now_us; start() pushes
        # as an event at 0 µs that runs before every other
        self._prio = -1
        self._key: int | tuple = 0
        self.nodes: dict[str, _Node] = {n: _Node() for n in sc.topology.nodes}

        self.pub_seq: dict[str, int] = {}
        self.topic_state: dict[str, _TopicState] = {}

        self.delivered: dict[str, int] = {}
        self.dups: dict[str, int] = {}
        self.filtered: dict[str, int] = {}
        self.latencies: dict[str, dict[int, int]] = {}  # {µs: deliveries}
        self.applied: dict[str, list[int]] = {}
        self.seen: dict[tuple[str, tuple[str, str]], _Seqs] = {}
        # transfers by (nodes they passed, size): report() expands these
        # into bytes per link
        self.path_sends: dict[tuple[tuple[str, ...], int], int] = {}
        self.leg_us: dict[tuple[tuple[str, str], int], int] = {}
        # plans by (origin, dest, size) on the current snapshot; the loaded
        # topology's are kept for the run, as a fault clearing returns to it
        self._root_plans: dict[tuple[str, str, int], _Plan | None] = {}
        self._plans = self._root_plans
        self.compute_us: dict[str, int] = {}
        self.busy_us: dict[str, int] = {n: 0 for n in sc.topology.nodes}
        self.exec_counts: dict[str, int] = {}
        self.exec_meta: dict[str, tuple[str, str]] = {}
        self.raw_crossings = 0
        self.lost_transfers = 0
        self.lost_acks = 0

        # faults not yet handled, in handling order: (µs, up, index in
        # sc.faults, node id or link ends)
        self.pending_faults: deque[tuple] = deque()
        self._next_fault_us = math.inf
        self.pending_repairs: dict[str, list[tuple[str, int]]] = {}
        self.recovery_us: dict[str, list[int]] = {}

        self.brokers, self._subscribe_actions = compile_scenario(sc, placer)

    def start(self) -> None:
        sc = self.sc
        # faults first: transfers sent here meet those in their flight
        faults = []
        for i, fault in enumerate(sc.faults):
            at = _ceil_us(fault.at_ms)
            if at <= self.end_us:
                target = fault.node if fault.link is None else tuple(sorted(fault.link))
                faults.append((at, fault.kind.endswith("_up"), i, target))
        # the order the heap hands them out in: (µs, down before up, file order)
        faults.sort()
        self.pending_faults.extend(faults)
        for at, up, *_ in faults:
            self._push(at, PRIO_FAULT_UP if up else PRIO_FAULT_DOWN, self._on_fault)
        if faults:
            self._next_fault_us = faults[0][0]
        for domain, actions in self._subscribe_actions:
            self._do_actions(domain, actions)
        for topic in sorted(sc.workload.topics):
            entry = sc.workload.topics[topic]
            start_us = entry.start_ms * US_PER_MS
            if entry.periodic:
                st = _TopicState(Topic.parse(topic), entry, None, 0, start_us)
            else:
                rng = _topic_rng(self.seed, topic)
                st = _TopicState(
                    Topic.parse(topic), entry, rng, 0,
                    start_us + _exp_gap_us(rng, entry.rate_per_s),
                )
            self.topic_state[topic] = st
            if entry.count != 0 and st.next_us <= self.end_us:
                self._push(st.next_us, PRIO_PUB, self._on_pub_due, topic)
        hb_us = sc.sim.heartbeat_ms * US_PER_MS
        if hb_us <= self.end_us:
            self._push(hb_us, PRIO_HEARTBEAT, self._on_heartbeat)

    # -- event plumbing ----------------------------------------------------

    def _push(self, t_us: int, prio: int, handler, *args) -> None:
        # (t_us, prio, seq) is unique, so the handler is never compared
        self._ev_seq += 1
        heapq.heappush(self.heap, (t_us, prio, self._ev_seq, handler, args))

    def run_loop(self) -> None:
        heap = self.heap
        while heap:
            t, prio, key, handler, args = heapq.heappop(heap)
            if t > self.end_us:
                break
            self.now_us, self._prio, self._key = t, prio, key
            handler(*args)

    # -- actions and transfers ---------------------------------------------

    def _do_actions(self, domain: str, actions: list) -> None:
        for act in actions:
            if isinstance(act, Delivery):
                self._send(
                    act.origin, act.subscriber, act.pub,
                    self._deliver_local, domain, act.sub_id, act.stream,
                )
            elif isinstance(act, StageTask):
                self._send(
                    act.origin, act.node, act.pub,
                    self._arrive_stage, domain, act.exec_id, act.via_stage,
                )
            elif isinstance(act, ModelFetch):
                ends = self.topo.link_between(*act.bridge).ends
                key = (ends, act.artifact_kb * 1024)
                self.path_sends[key] = self.path_sends.get(key, 0) + 1
                self._push(self.now_us + self._leg_us(*key), PRIO_FETCH,
                           self.brokers[domain].activate_instance, act.instance_id)
            else:  # pragma: no cover
                raise AssertionError(f"unknown action {act!r}")

    def _send(
        self, origin: str, dest: str, pub: Publication, arrive, *args
    ) -> None:
        """Carry pub from origin to dest, and call arrive(*args, pub) there.

        The transfer takes the plan of (origin, dest, size) on the current
        snapshot, and the heap gets one event, at the arrival µs. A leg
        counts its bytes if it starts by the run's end. The transfer is lost
        when there is no route, or at the first node j it reaches by the end
        where, after every fault up to that µs, j, the link to the next node
        or that node is down; one that arrives by the end and before the
        next fault needs no check. The arrival's key is that of a push from
        the event being handled, turned into (t, 1) + key + (0,) at each hop
        skipped at µs t: every leg lasts at least 1 µs, so such a hop ran
        among the hops pushed before t, in key order (see the module
        docstring).
        """
        plan_key = (origin, dest, pub.size_bytes)
        plan = self._plans.get(plan_key, _UNPLANNED)
        if plan is _UNPLANNED:
            plan = self._plans[plan_key] = self._plan(origin, dest, pub.size_bytes)
        if plan is None:
            self.lost_transfers += 1
            return
        path, arrivals, total = plan
        now, prio, key = self.now_us, self._prio, self._key
        self._ev_seq += 1
        if prio == PRIO_HOP and key[0] < now:
            key = (now, 1) + key + (self._ev_seq,)
        else:
            key = (now, 0 if prio < PRIO_HOP else 2, self._ev_seq)
        t = now + total
        next_fault_us = self._next_fault_us
        # a route is up on its snapshot, but a node can be down with a
        # transfer staying on it
        if (t < next_fault_us and t <= self.end_us
                and (arrivals or dest not in self.topo.down_nodes)):
            legs, lost = len(arrivals), False
            for off in arrivals[:-1]:
                key = (now + off, 1) + key
            key += (0,) * (legs - 1)
        else:
            legs, t, lost = 0, now, False
            for j, off in enumerate(arrivals):
                if j:  # the skipped hop at path[j]
                    key = (t, 1) + key + (0,)
                    if t >= next_fault_us and self._cut(path[j:j + 2], t):
                        lost = True
                        break
                legs += 1
                t = now + off
                if t > self.end_us:
                    break
            else:
                lost = (self._cut((dest,), t) if t >= next_fault_us
                        else dest in self.topo.down_nodes)
        self._account(now, plan, legs, pub)
        if lost:
            self.lost_transfers += 1
        elif t <= self.end_us:
            heapq.heappush(self.heap, (t, PRIO_HOP, key, arrive, (*args, pub)))

    def _plan(self, origin: str, dest: str, nbytes: int) -> _Plan | None:
        """The plan of nbytes from origin to dest on the current snapshot;
        None when there is no route."""
        got = self.topo.shortest(origin, dest)
        if got is None:
            return None
        path = got[2]
        leg_us = self.leg_us
        t, arrivals = 0, []
        for a, b in zip(path, path[1:]):
            key = ((a, b) if a < b else (b, a), nbytes)
            dur = leg_us.get(key)
            t += dur if dur is not None else self._leg_us(*key)
            arrivals.append(t)
        return path, tuple(arrivals), t

    def _account(self, t_us: int, plan: _Plan, legs: int, pub: Publication) -> None:
        """Count pub's bytes, and raw crossings, on the first legs links of
        plan's path, whose first leg leaves at t_us. A transfer that starts
        every leg counts under the path itself: slicing a whole tuple
        returns it."""
        key = (plan[0][:legs + 1], pub.size_bytes)
        self.path_sends[key] = self.path_sends.get(key, 0) + 1
        if pub.tag == "raw":
            self.raw_crossings += legs

    def _leg_us(self, ends: tuple[str, str], nbytes: int) -> int:
        """The µs nbytes take to cross link ends, cached per (ends, nbytes):
        only latency and bandwidth set it, never the state."""
        key = (ends, nbytes)
        dur = self.leg_us.get(key)
        if dur is None:
            link = self.topo.links[ends]
            dur = self.leg_us[key] = _ceil_us(
                link.latency_ms + Fraction(nbytes, 1024) / link.bandwidth_kb_per_ms
            )
        return dur

    def _cut(self, path: tuple[str, ...], t_us: int) -> bool:
        """Whether a node of path, or a link between two nodes next to each
        other on it, is down after every fault at or before t_us.

        Replays the pending faults onto the down nodes. Of links only pending
        faults count: callers ask about a route taken on the current
        snapshot, whose links are all up.
        """
        down = set(self.topo.down_nodes)
        for at, up, _, target in self.pending_faults:
            if at > t_us:
                break
            if up:
                down.discard(target)
            else:
                down.add(target)
        # a link's ends are sorted, so they lie on path one way or the other
        return not (
            down.isdisjoint(path)
            and down.isdisjoint(zip(path, path[1:]))
            and down.isdisjoint(zip(path[1:], path))
        )

    def _arrive_stage(
        self, domain: str, exec_id: str, via: str | None, pub: Publication
    ) -> None:
        ex = self.brokers[domain].exec_graph.stages.get(exec_id)
        if ex is None:
            self.lost_transfers += 1
        elif isinstance(ex.stage.kind, Funnel):
            self._offer(domain, ex, pub, via)
        else:
            self._enqueue(domain, ex, pub)

    def _arrive_submit(self, domain: str, pub: Publication) -> None:
        actions = self.brokers[domain].on_publish(pub, _ms(self.now_us))
        self._do_actions(domain, actions)

    # -- compute queues ----------------------------------------------------

    def _duration_us(self, ex) -> int:
        """µs one run of ex takes, cached per exec id: the id fixes the stage
        and the node, and a node's cpu capacity never changes."""
        dur = self.compute_us.get(ex.exec_id)
        if dur is None:
            cap = self.topo.node(ex.node).cpu_capacity
            dur = self.compute_us[ex.exec_id] = _ceil_us(ex.stage.compute_cost / cap)
        return dur

    def _enqueue(self, domain: str, ex, pub: Publication) -> None:
        """Queue one run of ex on pub on its node; _on_run_done follows it."""
        q = self.nodes[ex.node]
        job = (self._duration_us(ex), (domain, ex, pub))
        if q.running is None:
            self._start_job(ex.node, job)
        else:
            q.waiting.append(job)

    def _start_job(self, node: str, job: tuple) -> None:
        q = self.nodes[node]
        q.running = job
        q.started_us = self.now_us
        self._push(self.now_us + job[0], PRIO_JOB, self._on_job_done, node, job)

    def _on_job_done(self, node: str, job: tuple) -> None:
        q = self.nodes[node]
        if q.running is not job:
            return  # the node went down while this job ran
        self.busy_us[node] += job[0]
        q.running = None
        if q.waiting:
            self._start_job(node, q.waiting.popleft())
        self._on_run_done(*job[1])

    def _on_run_done(self, domain: str, ex, pub: Publication) -> None:
        """Count one finished run of ex, then pass its output on: a mapping
        applies to pub, a filter passes or settles it, and a funnel's pub is
        the emission it ran on. Nothing follows when repair removed ex
        mid-compute; replay covers the stream."""
        runs = self.exec_counts.get(ex.exec_id)
        if runs is None:
            # an exec id hashes its stage and node, so its first run names both
            self.exec_counts[ex.exec_id] = 1
            self.exec_meta[ex.exec_id] = (ex.stage.stage_id, ex.node)
        else:
            self.exec_counts[ex.exec_id] = runs + 1
        broker = self.brokers[domain]
        ex = broker.exec_graph.stages.get(ex.exec_id)
        if ex is None:
            return
        stage = ex.stage
        if isinstance(stage.kind, Mapping):
            pub = apply_mapping(stage, pub)
        elif isinstance(stage.kind, Filter):
            out = inference_filter(stage, pub)
            if out is None:
                for sub_id in broker.consume_buffered(ex.instance_ids, [pub]):
                    self.filtered[sub_id] = self.filtered.get(sub_id, 0) + 1
                return
            pub = out
        self._fan_out(domain, ex, pub)

    def _fan_out(self, domain: str, ex, pub: Publication) -> None:
        graph = self.brokers[domain].exec_graph
        for succ in graph.succs(ex.exec_id):
            self._send(
                ex.node, succ.node, pub,
                self._arrive_stage, domain, succ.exec_id, ex.stage.stage_id,
            )
        for de in graph.deliveries_from(ex.exec_id):
            self._send(
                ex.node, de.subscriber, pub,
                self._deliver_local, domain, de.sub_id, (pub.source, str(pub.topic)),
            )

    # -- funnels -----------------------------------------------------------

    def _offer(self, domain: str, ex, pub: Publication, via: str | None) -> None:
        """Offer pub to funnel ex's state on its node, a fresh one numbering
        its emissions from the broker's counter if the node holds none."""
        broker = self.brokers[domain]
        funnels = self.nodes[ex.node].funnels
        key = (domain, ex.exec_id)
        st = funnels.get(key)
        if st is None:
            st = FunnelState(ex.stage, Topic(("pipe", ex.stage.stage_id)),
                             next_seq=broker.funnel_seed(ex.exec_id))
        input_id = via if via is not None else pub.source
        # a barrier keeps one slot per input: pub supersedes what it held
        superseded = dict(st.pending).get(input_id) if isinstance(st.policy, Barrier) else None
        st2, emission = funnel_offer(st, pub, _ms(self.now_us), input_id=input_id)
        funnels[key] = st2
        if st.window_open_ts is None and st2.window_open_ts is not None:
            self._push(
                self.now_us + st.policy.delta_ms * US_PER_MS, PRIO_FUNNEL,
                self._on_funnel_fire, domain, ex.exec_id, self.now_us,
            )
        if superseded is not None:
            for sub_id in broker.consume_buffered(ex.instance_ids, [superseded]):
                self.filtered[sub_id] = self.filtered.get(sub_id, 0) + 1
        if emission is not None:
            consumed = [p for _, p in st.pending if p is not superseded] + [pub]
            broker.consume_buffered(ex.instance_ids, consumed)
            self._emit(domain, ex, emission)

    def _on_funnel_fire(self, domain: str, exec_id: str, open_us: int) -> None:
        """Close the time window opened at open_us, unless it already closed
        or its node failed since: then the node holds a newer state or none."""
        broker = self.brokers[domain]
        ex = broker.exec_graph.stages.get(exec_id)
        if ex is None:
            return
        funnels = self.nodes[ex.node].funnels
        key = (domain, exec_id)
        st = funnels.get(key)
        if st is None or st.window_open_ts != _ms(open_us):
            return
        st2, emission = funnel_tick(st, _ms(self.now_us))
        funnels[key] = st2
        if emission is not None:
            broker.consume_buffered(ex.instance_ids, [c for _, c in st.pending])
            self._emit(domain, ex, emission)

    def _emit(self, domain: str, ex, emission: Publication) -> None:
        self.brokers[domain].buffer_emission(ex, emission)
        self._enqueue(domain, ex, emission)

    # -- subscriber side ---------------------------------------------------

    def _deliver_local(
        self, domain: str, sub_id: str, stream: tuple[str, str], pub: Publication
    ) -> None:
        broker = self.brokers[domain]
        key = (sub_id, stream)
        seen = self.seen.get(key)
        if seen is None:
            seen = self.seen[key] = _Seqs(pub.seq)
        if not seen.add(pub.seq):
            self.dups[sub_id] = self.dups.get(sub_id, 0) + 1
        else:
            self.delivered[sub_id] = self.delivered.get(sub_id, 0) + 1
            ts = pub.ts
            ts_us, off_clock = divmod(ts.numerator * US_PER_MS, ts.denominator)
            if off_clock:
                raise ValueError(f"publication ts {ts} ms is not a whole µs")
            hist = self.latencies.setdefault(sub_id, {})
            lat_us = self.now_us - ts_us
            hist[lat_us] = hist.get(lat_us, 0) + 1
            if pub.semantic_tag in ("model-update", "model-snapshot"):
                versions = self.applied.setdefault(sub_id, [])
                if not versions or pub.seq > versions[-1]:
                    versions.append(pub.seq)
        # the ack takes the route of the current snapshot, and arrives if
        # that route is still up when it is due, by the rule of _send; it is
        # lost when there is no route or it is cut by then
        topo = self.topo
        ack = topo.shortest(broker.subs[sub_id].subscriber, broker.broker_node)
        if ack is None:
            self.lost_acks += 1
            return
        lat, _, path = ack
        # lat is the latency in 1 / _scale ms: ceil to whole µs in ints
        due_us = self.now_us - (-lat * US_PER_MS // topo._scale)
        if due_us > self.end_us:
            return
        if due_us >= self._next_fault_us and self._cut(path, due_us):
            self.lost_acks += 1
            return
        self._push(due_us, PRIO_ACK, broker.on_ack, sub_id, pub.seq, stream)

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
                topic=st.topic,
                source=publisher,
                seq=seq,
                ts=_ms(self.now_us),
                size_bytes=entry.size_bytes,
                payload=entry.payload,
                tag="raw",
                semantic_tag=entry.semantic_tag,
            )
            domain = self.topo.node(publisher).domain_id
            if st.topic.segments[0] == UPDATE_TOPIC_ROOT:
                broker = self.brokers[domain]
                self._send(
                    publisher, broker.broker_node, pub, self._arrive_submit, domain
                )
            else:
                actions = self.brokers[domain].on_publish(pub, pub.ts)
                self._do_actions(domain, actions)
        st.emitted += 1
        if entry.count is not None and st.emitted >= entry.count:
            return
        if entry.periodic:
            nxt = entry.start_ms * US_PER_MS + _periodic_us(st.emitted, entry.rate_per_s)
        else:
            assert st.rng is not None
            nxt = st.next_us + _exp_gap_us(st.rng, entry.rate_per_s)
        st.next_us = nxt
        if nxt <= self.end_us:
            self._push(nxt, PRIO_PUB, self._on_pub_due, topic)

    # -- faults and repair -------------------------------------------------

    def _on_fault(self) -> None:
        """Apply the first pending fault; the heap hands faults out in the
        order pending_faults keeps them. A fault sets its node's or link's
        state, so one that finds it in that state changes nothing."""
        faults = self.pending_faults
        _, up, _, target = faults.popleft()
        self._next_fault_us = faults[0][0] if faults else math.inf
        if isinstance(target, tuple):
            self._move_to(self.topo.with_link_state(*target, up))
            return
        if self.topo.is_node_up(target) == up:
            return
        self._move_to(self.topo.with_node_state(target, up))
        if up:
            for domain in sorted(self.brokers):
                if self.brokers[domain].broker_node == target:
                    for failed, fail_us in self.pending_repairs.pop(domain, []):
                        self._run_repair(domain, failed, fail_us)
            return
        q = self.nodes[target]
        if q.running is not None:
            self.busy_us[target] += self.now_us - q.started_us
        self.nodes[target] = _Node(failed_us=self.now_us)

    def _move_to(self, topo: Topology) -> None:
        """Make topo the current snapshot, with the plans made on it: the
        loaded topology's, or none yet. A snapshot a fault moves off is
        never current again, as a fault derives a new one or the root."""
        self.topo = topo
        self._plans = self._root_plans if topo is self.sc.topology else {}

    def _on_heartbeat(self) -> None:
        misses = self.sc.sim.heartbeat_misses
        for node in sorted(self.topo.down_nodes):
            record = self.nodes[node]
            record.missed += 1
            if record.missed != misses:
                continue  # not yet detected, or detected on an earlier tick
            fail_us = record.failed_us
            for domain in sorted(self.brokers):
                broker = self.brokers[domain]
                if not self.topo.is_node_up(broker.broker_node):
                    self.pending_repairs.setdefault(domain, []).append((node, fail_us))
                else:
                    self._run_repair(domain, node, fail_us)
        nxt = self.now_us + self.sc.sim.heartbeat_ms * US_PER_MS
        if nxt <= self.end_us:
            self._push(nxt, PRIO_HEARTBEAT, self._on_heartbeat)

    def _run_repair(self, domain: str, failed: str, fail_us: int) -> None:
        if self.topo.is_node_up(failed):
            return  # blip ended before detection completed
        plan = self.brokers[domain].on_node_failure(
            failed, self.topo, self.sc.workload, self.sc.objective
        )
        for iid in plan.affected:
            self.recovery_us.setdefault(iid, []).append(self.now_us - fail_us)
        self._do_actions(domain, plan.replays)

    # -- report ------------------------------------------------------------

    def report(self) -> MetricsReport:
        sc = self.sc
        subs_out = []
        # sub ids are unique across domains
        owners = {s: b for b in self.brokers.values() for s in b.subs}
        for sub_id in sorted(owners):
            broker = owners[sub_id]
            mean, p95 = _latency_stats(self.latencies.get(sub_id, {}))
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
        link_bytes: dict[tuple[str, str], int] = {}
        for (path, nbytes), n in self.path_sends.items():
            for a, b in zip(path, path[1:]):
                ends = (a, b) if a < b else (b, a)
                link_bytes[ends] = link_bytes.get(ends, 0) + n * nbytes
        bridge_ends = {tuple(sorted(p.link)) for p in sc.peers}
        links_out = []
        for ends in sorted(sc.topology.links):
            links_out.append(LinkMetrics(
                a=ends[0], b=ends[1],
                kb=float(Fraction(link_bytes.get(ends, 0), 1024)),
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
        for domain in sorted(self.brokers):
            broker = self.brokers[domain]
            for iid in sorted(broker.instances):
                inst = broker.instances[iid]
                instances_out.append(InstanceMetrics(
                    instance_id=iid,
                    sub_id=inst.sub_id,
                    repairs=inst.repairs,
                    suspended=inst.status == "suspended",
                    recovery_ms=tuple(
                        float(Fraction(us, 1000))
                        for us in self.recovery_us.get(iid, [])
                    ),
                ))
        totals = Totals(
            published=sum(self.pub_seq.values()),
            delivered=sum(s.delivered for s in subs_out),
            dup_suppressed=sum(s.dup_suppressed for s in subs_out),
            dropped=sum(s.dropped for s in subs_out),
            filtered=sum(s.filtered for s in subs_out),
            kb=float(Fraction(sum(link_bytes.values()), 1024)),
            executions=sum(self.exec_counts.values()),
            repairs=sum(i.repairs for i in instances_out),
            suspended=sum(i.suspended for i in instances_out),
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

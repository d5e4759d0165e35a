"""Per-domain broker: registry, subscriptions, delivery buffers, repair, peering."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Union

from .core import (
    Barrier,
    Filter,
    Funnel,
    LinkDescriptor,
    Mapping,
    ModelDescriptor,
    Pin,
    PipelineSpec,
    Publication,
    StageSpec,
    Subscription,
    DataSub,
    InferenceSub,
    ModelUpdateSub,
    Topic,
    TopicFilter,
    TopicIndex,
    Topology,
    TriggerPolicy,
    UPDATE_TOPIC_ROOT,
    as_ratio,
    inference_inputs,
    match_filter,
    split_model,
)
from .errors import (
    AmbiguousPublisherError,
    DuplicatePeerError,
    InstanceTerminatedError,
    LengthMismatchError,
    NoFeasiblePlacementError,
    NoPublisherError,
    StaleVersionError,
    UnknownModelError,
    UnknownSubscriptionError,
)
from .operators import ModelUpdate, aggregate_updates, apply_mapping
from .placement import (
    ExecStage,
    ExecutionGraph,
    Objective,
    Placement,
    TransferMemo,
    WorkloadSpec,
    merge_shared_prefix,
    place_baseline_subscriber,
    place_oracle,
    place_upstream,
    replan,
)

BUFFER_CAPACITY = 128

MODEL_TOPIC_ROOT = "_models"

Stream = tuple[str, str]  # (source id, topic string)


@dataclass
class PipelineInstance:
    """One resolved inference subscription: pipeline, placement, endpoints."""

    instance_id: str
    sub_id: str
    pipeline: PipelineSpec
    placement: Placement
    publishers: dict[str, str]  # entry stage -> publisher node
    entry_bindings: dict[str, tuple[str, str]]  # entry stage -> (topic, publisher)
    subscriber: str
    domain_span: str = "local"  # "local" | "cross:<peer domain>"
    status: str = "active"  # "active" | "pending" | "suspended"
    repairs: int = 0
    suspend_reason: str | None = None

    # entry stage -> the mapping stages a replay applies to its buffered
    # publications (see _compute_cuts)
    buffer_cuts: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class PeerLink:
    """A bridge to one peer domain between designated border nodes."""

    peer_domain: str
    bridge: LinkDescriptor


@dataclass(slots=True)
class BufferEntry:
    """One unacked publication held for retransmission.

    pub is the publication as it was published. cut holds the mapping
    stages its instance runs on the publisher node: a replay sends pub
    mapped through them, so a privacy-split replay never moves raw data.
    copy_key, the exec id of the cut's last stage, names that copy; entries
    that share it share one mapped copy. The first replay writes the copy
    into pub and empties cut (see Broker.on_node_failure).

    reentry_stage names where a replay re-enters the pipeline (None means a
    direct delivery to the subscriber); via_stage names the producing input
    for funnel offers.

    This record and the two actions below are built once per event and never
    hashed or compared by identity, so they are slotted and not frozen: a
    frozen build writes each field through object.__setattr__.
    """

    sub_id: str
    stream: Stream
    seq: int
    pub: Publication
    instance_id: str | None = None
    reentry_stage: str | None = None
    via_stage: str | None = None
    copy_key: str | None = None
    cut: tuple[StageSpec, ...] = ()


@dataclass(slots=True)
class Delivery:
    """Send pub to the subscriber of sub_id."""

    sub_id: str
    subscriber: str
    pub: Publication
    stream: Stream
    origin: str


@dataclass(slots=True)
class StageTask:
    """Run pub through the execution stage exec_id (transfer from origin)."""

    exec_id: str
    node: str
    pub: Publication
    origin: str
    via_stage: str | None = None


@dataclass(frozen=True)
class ModelFetch:
    """Pull a remote model artifact across the bridge before activation."""

    instance_id: str
    peer_domain: str
    artifact_kb: int
    bridge: tuple[str, str]


Action = Union[Delivery, StageTask, ModelFetch]


@dataclass(frozen=True)
class RepairPlan:
    """Outcome of one node-failure handling pass. replays resends the unacked
    entries from the broker node: a Delivery per direct entry, and one
    StageTask per (exec, stream, seq) of re-entries, as a shared prefix
    replayed once feeds every instance on it."""

    affected: tuple[str, ...]
    replays: tuple[Action, ...]
    suspended: tuple[str, ...]


class Broker:
    """Mutable per-domain broker state; one mutator at a time by contract."""

    def __init__(
        self,
        domain_id: str,
        broker_node: str,
        bindings: dict[str, str] | None = None,
        buffer_capacity: int = BUFFER_CAPACITY,
        trainers: dict[str, tuple[str, ...]] | None = None,
        artifact_kb: dict[str, int] | None = None,
        placer: str = "upstream",
    ) -> None:
        if placer not in ("upstream", "baseline", "oracle"):
            raise ValueError(f"unknown placer {placer!r}")
        self.domain_id = domain_id
        self.broker_node = broker_node
        # bound topic -> publisher node, fixed at construction
        self.bindings = dict(bindings or {})
        self._bound = TopicIndex(Topic.parse(topic) for topic in self.bindings)
        self.buffer_capacity = buffer_capacity
        self.trainers = dict(trainers or {})
        self.artifact_kb = dict(artifact_kb or {})
        self.placer = placer

        self.models: dict[str, ModelDescriptor] = {}
        self.initial_versions: dict[str, int] = {}
        self.subs: dict[str, Subscription] = {}
        self.instances: dict[str, PipelineInstance] = {}
        # peer domain -> (the bridge to it, its broker)
        self.peers: dict[str, tuple[PeerLink, "Broker"]] = {}
        self.buffers: dict[str, list[BufferEntry]] = {}
        self.drop_counts: dict[str, int] = {}
        self.accept_counts: dict[str, int] = {}
        self.last_seq: dict[Stream, int] = {}
        self.versions_seen: dict[str, int] = {}
        self.funnel_seqs: dict[str, int] = {}
        self.pending_updates: dict[tuple[str, int], dict[str, ModelUpdate]] = {}
        self.exec_graph = ExecutionGraph()
        # entry exec id -> its buffer rows (see _buffer_rows); dropped for
        # the entry execs of each instance a change adds, removes or repairs
        self._rows: dict[str, tuple[tuple, ...]] = {}
        # ids of the data subs, sorted; topic string -> those matching it
        self._data_ids: list[str] = []
        self._data_matches: dict[str, tuple[str, ...]] = {}
        # (id(model), k, privacy_split) -> (model, its split chain); peers may
        # declare one id and version with different layers, so the descriptor
        # is the key, by identity: hashing it hashes every layer's Fractions.
        # The entry keeps the model alive, so its id is never reused
        self._splits: dict[
            tuple[int, int, bool], tuple[ModelDescriptor, PipelineSpec]
        ] = {}
        self._next_instance = 0

    # -- registry ----------------------------------------------------------

    def register_model(self, m: ModelDescriptor, now: Fraction = Fraction(0)) -> list[Delivery]:
        """Insert or upgrade a model; upgrades notify ModelUpdate subscribers."""
        current = self.models.get(m.model_id)
        if current is not None and m.version <= current.version:
            raise StaleVersionError(m.model_id, m.version, current.version)
        self.models[m.model_id] = m
        self.initial_versions.setdefault(m.model_id, m.version)
        if current is None:
            return []
        return self._notify_update_subs(m.model_id, m.version, m.params, now)

    def discover(self, task_tag: str | None = None, model_id: str | None = None) -> list[ModelDescriptor]:
        """Locally registered descriptors matching every given field."""
        out = []
        for mid in sorted(self.models):
            m = self.models[mid]
            if task_tag is not None and m.task_tag != task_tag:
                continue
            if model_id is not None and m.model_id != model_id:
                continue
            out.append(m)
        return out

    # -- subscribing -------------------------------------------------------

    def subscribe(
        self,
        sub: Subscription,
        t: Topology,
        w: WorkloadSpec,
        o: Objective,
        now: Fraction = Fraction(0),
        memo: TransferMemo | None = None,
    ) -> tuple[str, list[Action]]:
        """Register sub; an inference sub is placed and merged at once.

        memo is what the placement searches of one compile share (see
        TransferMemo); the broker keeps no reference to it.
        """
        if sub.sub_id in self.subs:
            raise ValueError(f"duplicate sub id {sub.sub_id!r}")
        kind = sub.kind
        actions: list[Action] = []
        if isinstance(kind, DataSub):
            self.subs[sub.sub_id] = sub
            insort(self._data_ids, sub.sub_id)
            self._data_matches.clear()
        elif isinstance(kind, ModelUpdateSub):
            self.subs[sub.sub_id] = sub
            m = self.models.get(kind.model_id)
            if m is not None and m.version >= kind.min_version and m.version > 0:
                pub = self._model_pub(m.model_id, m.version, m.params, now, "model-snapshot")
                actions.extend(self._deliver([sub.sub_id], pub, self.broker_node))
        elif isinstance(kind, InferenceSub):
            self.subs[sub.sub_id] = sub
            try:
                if kind.model_id in self.models:
                    inst = self._instantiate(
                        sub, self.models[kind.model_id], t, w, o, "local", memo
                    )
                else:
                    inst, fetch = self.resolve_remote(sub, t, w, o, memo)
                    actions.append(fetch)
            except Exception:
                del self.subs[sub.sub_id]
                raise
            self.instances[inst.instance_id] = inst
            if inst.status == "active":
                merge_shared_prefix(self.exec_graph, added=[inst])
                self._drop_rows([inst.instance_id])
        else:
            raise TypeError(f"unknown subscription kind {kind!r}")
        return sub.sub_id, actions

    def _instantiate(
        self,
        sub: Subscription,
        model: ModelDescriptor,
        t: Topology,
        w: WorkloadSpec,
        o: Objective,
        span: str,
        memo: TransferMemo | None = None,
    ) -> PipelineInstance:
        kind = sub.kind
        assert isinstance(kind, InferenceSub)
        matched = [
            (topic, self.bindings[topic])
            for topic in inference_inputs(self._bound, kind.filter)
        ]
        if not matched:
            raise NoPublisherError(f"{sub.sub_id}: no bound topic matches {kind.filter}")
        if kind.privacy_split and len(matched) > 1:
            raise AmbiguousPublisherError(
                f"{sub.sub_id}: privacy split needs a single publisher, "
                f"matched {[m[0] for m in matched]}"
            )
        key = (id(model), kind.k, kind.privacy_split)
        got = self._splits.get(key)
        if got is None:
            got = model, split_model(model, kind.k, kind.privacy_split)
            self._splits[key] = got
        chain = got[1]
        chain_entry = chain.entry_ids()[0]

        stages = list(chain.stages)
        edges = list(chain.edges)
        bindings: dict[str, TopicFilter] = {}
        publishers: dict[str, str] = {}
        entry_bindings: dict[str, tuple[str, str]] = {}

        joined = len(matched) > 1 or kind.trigger is not None
        head = chain_entry
        if kind.prefilter is not None:
            gate = StageSpec(
                stage_id=f"{model.model_id}-v{model.version}-gate",
                kind=Filter(kind.prefilter, kind.prefilter_args),
                compute_cost=0,
                mem_mb=0,
                selectivity=1,
            )
            stages.insert(0, gate)
            edges.insert(0, (gate.stage_id, head))
            head = gate.stage_id
        if joined:
            relay_ids = []
            for topic, node in matched:
                rid = "in-" + topic.replace("/", ".")
                relay_ids.append(rid)
                stages.insert(0, StageSpec(
                    stage_id=rid,
                    kind=Mapping("identity"),
                    compute_cost=0,
                    mem_mb=0,
                    selectivity=1,
                    pin=Pin.at_node(node),
                ))
                bindings[rid] = TopicFilter.parse(topic)
                publishers[rid] = node
                entry_bindings[rid] = (topic, node)
            trigger: TriggerPolicy = kind.trigger or Barrier(tuple(sorted(relay_ids)))
            join = StageSpec(
                stage_id=f"{model.model_id}-v{model.version}-join",
                kind=Funnel(kind.combine_fn, trigger),
                compute_cost=0,
                mem_mb=0,
                selectivity=1,
            )
            stages.insert(len(relay_ids), join)
            for rid in relay_ids:
                edges.insert(0, (rid, join.stage_id))
            edges.append((join.stage_id, head))
        else:
            topic, node = matched[0]
            bindings[head] = TopicFilter.parse(topic)
            publishers[head] = node
            entry_bindings[head] = (topic, node)

        pipeline = PipelineSpec(
            pipeline_id=f"{sub.sub_id}:{model.model_id}-v{model.version}",
            stages=tuple(stages),
            edges=tuple(sorted(set(edges))),
            source_bindings=bindings,
            sink=chain.sink,
        )
        if self.placer == "baseline":
            placement = place_baseline_subscriber(pipeline, t, w, publishers, sub.subscriber)
        else:
            place = place_oracle if self.placer == "oracle" else place_upstream
            placement = place(pipeline, t, w, o, publishers, sub.subscriber, memo)
        self._next_instance += 1
        inst = PipelineInstance(
            instance_id=f"{self.domain_id}-i{self._next_instance}",
            sub_id=sub.sub_id,
            pipeline=pipeline,
            placement=placement,
            publishers=publishers,
            entry_bindings=entry_bindings,
            subscriber=sub.subscriber,
            domain_span=span,
        )
        inst.buffer_cuts = self._compute_cuts(inst)
        return inst

    def _compute_cuts(self, inst: PipelineInstance) -> dict[str, tuple[str, ...]]:
        """Mapping prefix kept on the publisher node, per entry stage.

        The retransmit buffer holds each publication as it was published; a
        replay sends it mapped through this prefix, as it leaves the
        publisher, so a privacy-split replay never moves raw data.
        """
        cuts: dict[str, tuple[str, ...]] = {}
        p = inst.pipeline
        for entry, pub_node in inst.publishers.items():
            cut: list[str] = []
            sid = entry
            while True:
                stage = p.stage(sid)
                if not isinstance(stage.kind, Mapping):
                    break
                if inst.placement.node_of(sid) != pub_node:
                    break
                cut.append(sid)
                nxt = p.succs(sid)
                if len(nxt) != 1 or len(p.preds(nxt[0])) != 1:
                    break
                sid = nxt[0]
            cuts[entry] = tuple(cut)
        return cuts

    # -- publishing --------------------------------------------------------

    def on_publish(self, p: Publication, now: Fraction = Fraction(0)) -> list[Action]:
        """Match p against subscriptions and instances; returns the work."""
        stream = (p.source, str(p.topic))
        if p.seq <= self.last_seq.get(stream, 0):
            return []
        self.last_seq[stream] = p.seq
        actions: list[Action] = []

        if p.topic.segments[0] == UPDATE_TOPIC_ROOT and len(p.topic.segments) >= 2:
            actions.extend(self._on_update_submission(p, now))

        # update submissions sit at the broker once processed, so their
        # matched data deliveries originate here, not at the trainer
        mediated = p.topic.segments[0] == UPDATE_TOPIC_ROOT
        origin = self.broker_node if mediated else p.source
        actions.extend(self._deliver(self._data_subs_matching(p.topic), p, origin))

        # the graph holds active instances only; each entry holds p as it
        # was published, and a replay maps it through the entry's cut
        seq = p.seq
        for ex in self.exec_graph.entries(stream[1], p.source):
            rows = self._rows.get(ex.exec_id)
            if rows is None:
                rows = self._rows[ex.exec_id] = self._buffer_rows(ex)
            for sub_id, iid, reentry, via, copy_key, cut in rows:
                self._buffer(BufferEntry(
                    sub_id, stream, seq, p, iid, reentry, via, copy_key, cut,
                ))
            actions.append(StageTask(ex.exec_id, ex.node, p, p.source))
        return actions

    def _data_subs_matching(self, topic: Topic) -> tuple[str, ...]:
        key = str(topic)
        got = self._data_matches.get(key)
        if got is None:
            got = tuple(
                sub_id for sub_id in self._data_ids
                if match_filter(self.subs[sub_id].kind.filter, topic)
            )
            self._data_matches[key] = got
        return got

    def _buffer_rows(self, ex: ExecStage) -> tuple[tuple, ...]:
        """What on_publish buffers for each instance on entry exec ex, as
        (sub id, instance id, reentry stage, via stage, copy key, cut
        stages), in BufferEntry's field order. A replay maps the publication
        through the cut stages, when there are any, re-enters at the reentry
        stage (None: a direct delivery, the whole pipeline sat on the
        publisher) and is offered via the via stage. The copy key is the
        exec id of the cut's last stage: that id hashes the whole chain up to
        it, so instances sharing it share the copy."""
        entry_stage = ex.stage.stage_id
        stages: dict[str, tuple[StageSpec, ...]] = {}  # one per copy key
        rows = []
        for iid in ex.instance_ids:
            inst = self.instances[iid]
            cut = inst.buffer_cuts.get(entry_stage, ())
            if not cut:
                rows.append((inst.sub_id, iid, entry_stage, None, None, ()))
                continue
            last = cut[-1]
            key = self.exec_graph.exec_for(iid, last).exec_id
            if key not in stages:
                stages[key] = tuple(map(inst.pipeline.stage, cut))
            nxt = inst.pipeline.succs(last)
            rows.append((
                inst.sub_id, iid, nxt[0] if nxt else None, last, key, stages[key],
            ))
        return tuple(rows)

    def _buffer(self, entry: BufferEntry, count: bool = True) -> None:
        buf = self.buffers.setdefault(entry.sub_id, [])
        buf.append(entry)
        if count:
            self.accept_counts[entry.sub_id] = self.accept_counts.get(entry.sub_id, 0) + 1
        if len(buf) > self.buffer_capacity:
            buf.pop(0)
            self.drop_counts[entry.sub_id] = self.drop_counts.get(entry.sub_id, 0) + 1

    def _deliver(self, sub_ids: Iterable[str], pub: Publication, origin: str) -> list[Delivery]:
        out = []
        stream = (pub.source, str(pub.topic))
        for sub_id in sub_ids:
            sub = self.subs[sub_id]
            self._buffer(BufferEntry(sub_id, stream, pub.seq, pub))
            out.append(Delivery(sub_id, sub.subscriber, pub, stream, origin))
        return out

    # -- acknowledgements --------------------------------------------------

    def on_ack(self, sub_id: str, seq: int, stream: Stream | None = None) -> None:
        """Cumulative ack: drop buffered entries of the stream with seq <= acked.

        stream may be omitted for subscriptions whose buffer holds a single
        stream (the common single-topic case).
        """
        if sub_id not in self.subs:
            raise UnknownSubscriptionError(sub_id)
        buf = self.buffers.get(sub_id, [])
        if stream is None:
            streams = {e.stream for e in buf}
            if len(streams) > 1:
                raise ValueError(f"{sub_id}: ack needs a stream, buffer holds {len(streams)}")
            if not streams:
                return
            stream = next(iter(streams))
        self.buffers[sub_id] = [
            e for e in buf if not (e.stream == stream and e.seq <= seq)
        ]

    def consume_buffered(
        self, instance_ids: Iterable[str], pubs: Iterable[Publication]
    ) -> list[str]:
        """Settle pubs for the live subscriptions of instance_ids: a funnel
        consumed them or a filter dropped them downstream, so they will never
        be acked. Returns those subscriptions' ids, sorted."""
        sub_ids = sorted(
            self.instances[iid].sub_id
            for iid in instance_ids
            if self.instances[iid].status == "active"
        )
        settled = {((p.source, str(p.topic)), p.seq) for p in pubs}
        for sub_id in sub_ids:
            buf = self.buffers.get(sub_id)
            if buf:
                self.buffers[sub_id] = [
                    e for e in buf if (e.stream, e.seq) not in settled
                ]
        return sub_ids

    def buffer_emission(self, ex: ExecStage, emission: Publication) -> None:
        """Hold a funnel emission for retransmission and persist its counter."""
        self.funnel_seqs[ex.exec_id] = emission.seq + 1
        succs = self.exec_graph.succs(ex.exec_id)
        reentry = succs[0].stage.stage_id if succs else None
        stream = (emission.source, str(emission.topic))
        for iid in ex.instance_ids:
            inst = self.instances[iid]
            if inst.status != "active":
                continue
            self._buffer(BufferEntry(
                inst.sub_id, stream, emission.seq, emission, instance_id=iid,
                reentry_stage=reentry, via_stage=ex.stage.stage_id,
            ), count=False)

    def funnel_seed(self, exec_id: str) -> int:
        return self.funnel_seqs.get(exec_id, 1)

    # -- peering -----------------------------------------------------------

    def link_peer(self, peer: PeerLink, broker: "Broker") -> None:
        if peer.peer_domain in self.peers:
            raise DuplicatePeerError(peer.peer_domain)
        self.peers[peer.peer_domain] = (peer, broker)

    def resolve_remote(
        self,
        sub: Subscription,
        t: Topology,
        w: WorkloadSpec,
        o: Objective,
        memo: TransferMemo | None = None,
    ) -> tuple[PipelineInstance, ModelFetch]:
        """Find the model at a peer over an up bridge and build a cross
        instance; the caller meters the returned artifact fetch."""
        kind = sub.kind
        assert isinstance(kind, InferenceSub)
        if kind.model_id in self.models:
            raise ValueError(f"{kind.model_id} is local; nothing to resolve")
        for domain in sorted(self.peers):
            peer, remote = self.peers[domain]
            ends = peer.bridge.ends
            if not t.is_link_up(*ends):
                continue
            model = remote.models.get(kind.model_id)
            if model is None:
                continue
            inst = self._instantiate(sub, model, t, w, o, f"cross:{domain}", memo)
            inst.status = "pending"
            kb = remote.artifact_kb.get(kind.model_id, 64 * len(model.layers))
            return inst, ModelFetch(inst.instance_id, domain, kb, ends)
        raise UnknownModelError(kind.model_id)

    def activate_instance(self, instance_id: str) -> None:
        inst = self.instances[instance_id]
        if inst.status == "pending":
            inst.status = "active"
            merge_shared_prefix(self.exec_graph, added=[inst])
            self._drop_rows([instance_id])

    # -- model updates -----------------------------------------------------

    def _model_pub(
        self, model_id: str, version: int, payload: tuple[float, ...],
        now: Fraction, semantic_tag: str,
    ) -> Publication:
        return Publication(
            topic=Topic((MODEL_TOPIC_ROOT, model_id)),
            source=self.broker_node,
            seq=version,
            ts=as_ratio(now),
            size_bytes=max(1, 8 * len(payload)),
            payload=payload,
            tag="derived",
            semantic_tag=semantic_tag,
        )

    def _notify_update_subs(
        self, model_id: str, version: int, payload: tuple[float, ...], now: Fraction
    ) -> list[Delivery]:
        targets = []
        for sub_id in sorted(self.subs):
            sub = self.subs[sub_id]
            if not isinstance(sub.kind, ModelUpdateSub):
                continue
            if sub.kind.model_id != model_id or version < sub.kind.min_version:
                continue
            if version <= self.versions_seen.get(sub_id, -1):
                continue
            self.versions_seen[sub_id] = version
            targets.append(sub_id)
        if not targets:
            return []
        pub = self._model_pub(model_id, version, payload, now, "model-update")
        return self._deliver(targets, pub, self.broker_node)

    def _on_update_submission(self, p: Publication, now: Fraction) -> list[Delivery]:
        """A trainer publication on _updates/<model>/<trainer> carries one
        round's delta; a round aggregates once every trainer submitted."""
        model_id = p.topic.segments[1]
        model = self.models.get(model_id)
        trainers = self.trainers.get(model_id)
        if model is None or not trainers or p.source not in trainers:
            return []
        if len(p.payload) != len(model.params):
            raise LengthMismatchError(
                f"{model_id}: delta {len(p.payload)} vs params {len(model.params)}"
            )
        version = self.initial_versions[model_id] + p.seq
        key = (model_id, version)
        box = self.pending_updates.setdefault(key, {})
        box[p.source] = ModelUpdate(model_id, version, p.payload)
        out: list[Delivery] = []
        while True:
            model = self.models[model_id]
            nxt = (model_id, model.version + 1)
            box = self.pending_updates.get(nxt)
            if box is None or set(box) != set(self.trainers[model_id]):
                break
            agg = aggregate_updates([box[tr] for tr in sorted(box)])
            del self.pending_updates[nxt]
            params = tuple(a + d for a, d in zip(model.params, agg.delta))
            self.models[model_id] = replace(model, version=nxt[1], params=params)
            out.extend(self._notify_update_subs(model_id, nxt[1], agg.delta, now))
        return out

    # -- failure handling --------------------------------------------------

    def on_node_failure(
        self,
        failed: str,
        t: Topology,
        w: WorkloadSpec,
        o: Objective,
    ) -> RepairPlan:
        """Replan instances touching the failed node; return the replays.

        Every unacked buffered publication of a live subscription is replayed:
        an instance with no stage on the failed node can still have lost an
        in-flight transfer routed through it, and the subscriber-side dedup
        absorbs any surplus. A suspended instance's entries are dropped.

        An entry with a cut is replayed as its publication mapped through
        the cut, once per (copy key, stream, seq); the copy replaces the
        entry's publication, so a later failure replays the same object.
        """
        affected: list[str] = []
        suspended: list[str] = []
        # every replan of this failure shares one memo, so each pipeline
        # shape is derived once per repair
        memo = TransferMemo(t)
        for iid in sorted(self.instances):
            inst = self.instances[iid]
            if inst.status != "active":
                continue
            hosts = set(inst.placement.assignment.values())
            endpoints = set(inst.publishers.values()) | {inst.subscriber}
            if failed in endpoints:
                inst.status = "suspended"
                inst.suspend_reason = "endpoint-failed"
                suspended.append(iid)
                continue
            if failed not in hosts:
                continue
            try:
                pl = replan(
                    inst.placement, {failed}, inst.pipeline, t, w, o,
                    inst.publishers, inst.subscriber, memo,
                )
            except (InstanceTerminatedError, NoFeasiblePlacementError) as exc:
                inst.status = "suspended"
                inst.suspend_reason = type(exc).__name__
                suspended.append(iid)
                continue
            inst.placement = pl
            inst.repairs += 1
            inst.buffer_cuts = self._compute_cuts(inst)
            affected.append(iid)
        if affected or suspended:
            self._recompile(suspended + affected, affected)

        replays: list[Action] = []
        dispatched: set[tuple[str, Stream, int]] = set()
        copies: dict[tuple[str | None, Stream, int], Publication] = {}
        origin = self.broker_node
        for sub_id in sorted(self.buffers):
            subscriber = self.subs[sub_id].subscriber
            keep: list[BufferEntry] = []
            for e in self.buffers[sub_id]:
                if e.instance_id is not None:
                    if self.instances[e.instance_id].status != "active":
                        continue  # suspended: entry dropped, counted as lost
                keep.append(e)
                if e.cut:
                    key = (e.copy_key, e.stream, e.seq)
                    pub = copies.get(key)
                    if pub is None:
                        pub = e.pub
                        for stage in e.cut:
                            pub = apply_mapping(stage, pub)
                        copies[key] = pub
                    e.pub, e.cut = pub, ()
                if e.reentry_stage is None:
                    replays.append(Delivery(sub_id, subscriber, e.pub, e.stream, origin))
                    continue
                assert e.instance_id is not None
                ex = self.exec_graph.exec_for(e.instance_id, e.reentry_stage)
                if ex is None or (ex.exec_id, e.stream, e.seq) in dispatched:
                    continue
                dispatched.add((ex.exec_id, e.stream, e.seq))
                replays.append(StageTask(ex.exec_id, ex.node, e.pub, origin, e.via_stage))
            self.buffers[sub_id] = keep
        return RepairPlan(tuple(affected), tuple(replays), tuple(suspended))

    # -- helpers -----------------------------------------------------------

    def _recompile(self, removed: list[str], repaired: list[str]) -> None:
        """Take removed out of the exec graph and merge repaired back in."""
        graph = self.exec_graph
        old = {
            (iid, sid): graph.exec_for(iid, sid).exec_id
            for iid in repaired
            for sid in self.instances[iid].pipeline.stage_ids()
        }
        self._drop_rows(removed)
        merge_shared_prefix(graph, removed, [self.instances[i] for i in repaired])
        self._drop_rows(repaired)
        # a repaired funnel gets a fresh exec id; its emission counter
        # must carry over so replayed streams stay dedupable
        for (iid, sid), old_id in old.items():
            seed = self.funnel_seqs.get(old_id)
            new_id = graph.exec_for(iid, sid).exec_id
            if seed is not None and new_id != old_id:
                self.funnel_seqs[new_id] = max(self.funnel_seqs.get(new_id, 1), seed)

    def _drop_rows(self, iids: Iterable[str]) -> None:
        """Forget the buffer rows of the entry execs that run iids in the
        graph now. A row reads only its own instance, and an entry exec's
        rows only the instances it runs, so no other exec's rows change
        when these instances join or leave the graph or change their cuts."""
        graph = self.exec_graph
        for iid in iids:
            for sid in self.instances[iid].pipeline.entry_ids():
                ex = graph.exec_for(iid, sid)
                if ex is not None:
                    self._rows.pop(ex.exec_id, None)

    def active_instances(self) -> list[PipelineInstance]:
        return [
            self.instances[iid]
            for iid in sorted(self.instances)
            if self.instances[iid].status == "active"
        ]

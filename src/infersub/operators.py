"""Executable stage semantics: mapping, funnel, filter, update aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .core import (
    Barrier,
    CountWindow,
    Filter,
    Funnel,
    Mapping,
    Publication,
    StageSpec,
    TimeWindow,
    Topic,
    TriggerPolicy,
    as_ratio,
    scaled_size,
)
from .errors import (
    LengthMismatchError,
    MixedModelsError,
    MixedVersionsError,
    UnexpectedInputError,
    UnknownFnError,
    UnknownPredicateError,
)

__all__ = [
    "Barrier",
    "CountWindow",
    "TimeWindow",
    "TriggerPolicy",
    "FunnelState",
    "ModelUpdate",
    "UNARY_FNS",
    "COMBINE_FNS",
    "PREDICATES",
    "apply_mapping",
    "funnel_offer",
    "funnel_tick",
    "inference_filter",
    "aggregate_updates",
]

Payload = tuple[float, ...]
Args = dict[str, Union[int, float, str]]


# ---------------------------------------------------------------------------
# Function catalog. The ids below are the scenario-file vocabulary; the
# catalog is closed by design (extensible here, not from scenario files).

def _fn_identity(args: Args, payload: Payload) -> Payload:
    return payload


def _fn_scale(args: Args, payload: Payload) -> Payload:
    ratio = float(args.get("ratio", 1))
    return tuple(v * ratio for v in payload)


def _fn_affine(args: Args, payload: Payload) -> Payload:
    a = float(args.get("a", 1))
    b = float(args.get("b", 0))
    return tuple(a * v + b for v in payload)


def _fn_concat(args: Args, payloads: list[Payload]) -> Payload:
    out: list[float] = []
    for p in payloads:
        out.extend(p)
    return tuple(out)


def _fn_mean(args: Args, payloads: list[Payload]) -> Payload:
    # Elementwise over the shortest input; exact sums keep the result
    # independent of how Python would associate float additions.
    width = min(len(p) for p in payloads)
    out = []
    for i in range(width):
        total = sum((Fraction(p[i]) for p in payloads), Fraction(0))
        out.append(float(total / len(payloads)))
    return tuple(out)


def _pred_threshold(args: Args, payload: Payload) -> bool:
    index = int(args.get("index", 0))
    floor = float(args.get("min", 0))
    if not 0 <= index < len(payload):
        return False
    return payload[index] >= floor


UNARY_FNS: dict[str, Callable[[Args, Payload], Payload]] = {
    "identity": _fn_identity,
    "scale": _fn_scale,
    "affine": _fn_affine,
}

COMBINE_FNS: dict[str, Callable[[Args, list[Payload]], Payload]] = {
    "concat": _fn_concat,
    "mean": _fn_mean,
}

PREDICATES: dict[str, Callable[[Args, Payload], bool]] = {
    "threshold": _pred_threshold,
}


# ---------------------------------------------------------------------------
# Mapping and filter stages


def apply_mapping(stage: StageSpec, p: Publication) -> Publication:
    """Apply a mapping stage: payload through the catalog fn, size through the
    size law; topic, source, seq and ts are preserved (transport owns time)."""
    if not isinstance(stage.kind, Mapping):
        raise ValueError(f"stage {stage.stage_id} is not a mapping")
    fn = UNARY_FNS.get(stage.kind.fn_id)
    if fn is None:
        raise UnknownFnError(stage.kind.fn_id)
    return Publication(
        p.topic, p.source, p.seq, p.ts,
        scaled_size(p.size_bytes, stage.selectivity),
        fn(dict(stage.kind.args), p.payload), "derived", p.semantic_tag,
    )


def inference_filter(stage: StageSpec, p: Publication) -> Publication | None:
    """Pass p (retagged derived, size scaled) iff the predicate holds."""
    if not isinstance(stage.kind, Filter):
        raise ValueError(f"stage {stage.stage_id} is not a filter")
    pred = PREDICATES.get(stage.kind.predicate_id)
    if pred is None:
        raise UnknownPredicateError(stage.kind.predicate_id)
    if not pred(dict(stage.kind.args), p.payload):
        return None
    return Publication(
        p.topic, p.source, p.seq, p.ts,
        scaled_size(p.size_bytes, stage.selectivity),
        p.payload, "derived", p.semantic_tag,
    )


# ---------------------------------------------------------------------------
# Funnel stages


@dataclass(frozen=True)
class FunnelState:
    """Pure funnel runtime: buffered inputs plus the emission counter.

    pending holds (input_id, publication) pairs; under Barrier at most one
    pair per expected input. next_seq numbers this funnel's own emissions and
    must survive state rebuilds, or replays after a repair would re-use seqs.
    """

    stage: StageSpec
    out_topic: Topic
    pending: tuple[tuple[str, Publication], ...] = ()
    window_open_ts: Fraction | None = None
    next_seq: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.stage.kind, Funnel):
            raise ValueError(f"stage {self.stage.stage_id} is not a funnel")

    @property
    def policy(self) -> TriggerPolicy:
        assert isinstance(self.stage.kind, Funnel)
        return self.stage.kind.trigger


def _combine(state: FunnelState, items: list[Publication], now) -> tuple[FunnelState, Publication]:
    kind = state.stage.kind
    assert isinstance(kind, Funnel)
    fn = COMBINE_FNS.get(kind.fn_id)
    if fn is None:
        raise UnknownFnError(kind.fn_id)
    items = sorted(items, key=Publication.sort_key)
    payload = fn(dict(kind.args), [p.payload for p in items])
    total = sum(p.size_bytes for p in items)
    out = Publication(
        topic=state.out_topic,
        source=state.stage.stage_id,
        seq=state.next_seq,
        ts=as_ratio(now),
        size_bytes=scaled_size(total, state.stage.selectivity),
        payload=payload,
        tag="derived",
    )
    cleared = FunnelState(state.stage, state.out_topic, (), None, state.next_seq + 1)
    return cleared, out


def funnel_offer(
    state: FunnelState, p: Publication, now, input_id: str | None = None
) -> tuple[FunnelState, Publication | None]:
    """Buffer p; emit when the trigger policy completes.

    input_id identifies which funnel input delivered p and defaults to
    p.source. Barrier keeps the newest publication per input and emits once
    all inputs are pending, combining in (topic, source, seq) order;
    CountWindow emits on the n-th buffered; TimeWindow only opens the window
    (funnel_tick emits).
    """
    if input_id is None:
        input_id = p.source
    # each next state is built directly: replace would re-read every field
    # through fields()
    stage, out_topic = state.stage, state.out_topic
    opened, next_seq = state.window_open_ts, state.next_seq
    policy = state.policy
    if isinstance(policy, Barrier):
        if input_id not in policy.inputs:
            raise UnexpectedInputError(
                f"funnel {stage.stage_id}: input {input_id!r}"
            )
        pending = tuple(
            (iid, q) for iid, q in state.pending if iid != input_id
        ) + ((input_id, p),)
        pending = tuple(sorted(pending, key=lambda pair: pair[0]))
        nxt = FunnelState(stage, out_topic, pending, opened, next_seq)
        if {iid for iid, _ in pending} == set(policy.inputs):
            return _combine(nxt, [q for _, q in pending], now)
        return nxt, None
    if isinstance(policy, CountWindow):
        pending = state.pending + ((input_id, p),)
        nxt = FunnelState(stage, out_topic, pending, opened, next_seq)
        if len(pending) >= policy.n:
            return _combine(nxt, [q for _, q in pending], now)
        return nxt, None
    # TimeWindow: first buffered publication opens the window.
    if opened is None:
        opened = as_ratio(now)
    pending = state.pending + ((input_id, p),)
    return FunnelState(stage, out_topic, pending, opened, next_seq), None


def funnel_tick(state: FunnelState, now) -> tuple[FunnelState, Publication | None]:
    """TimeWindow only: emit everything pending once now >= open + delta_ms."""
    policy = state.policy
    if not isinstance(policy, TimeWindow):
        raise ValueError(f"funnel {state.stage.stage_id} has no timer")
    if state.window_open_ts is None:
        return state, None
    if as_ratio(now) < state.window_open_ts + policy.delta_ms:
        return state, None
    return _combine(state, [q for _, q in state.pending], now)


# ---------------------------------------------------------------------------
# Model updates


@dataclass(frozen=True)
class ModelUpdate:
    """A versioned parameter delta for one model."""

    model_id: str
    version: int
    delta: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(float(v) for v in self.delta))
        if self.version < 0:
            raise ValueError("update: version must be >= 0")


def aggregate_updates(updates: list[ModelUpdate]) -> ModelUpdate:
    """Elementwise arithmetic mean of same-model, same-version deltas.

    The mean is computed in exact rational arithmetic and rounded once, so the
    result is exactly permutation-invariant.
    """
    if not updates:
        raise ValueError("aggregate: no updates")
    head = updates[0]
    for u in updates[1:]:
        if u.model_id != head.model_id:
            raise MixedModelsError(f"{head.model_id} vs {u.model_id}")
    for u in updates[1:]:
        if u.version != head.version:
            raise MixedVersionsError(f"{head.version} vs {u.version}")
    for u in updates[1:]:
        if len(u.delta) != len(head.delta):
            raise LengthMismatchError(f"{len(head.delta)} vs {len(u.delta)}")
    n = len(updates)
    mean = tuple(
        float(sum((Fraction(u.delta[i]) for u in updates), Fraction(0)) / n)
        for i in range(len(head.delta))
    )
    return ModelUpdate(head.model_id, head.version, mean)

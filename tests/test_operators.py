"""Operator semantics: mappings, filters, funnels, update aggregation."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from infersub.core import (
    Barrier,
    CountWindow,
    Filter,
    Funnel,
    Mapping,
    Publication,
    StageSpec,
    TimeWindow,
    Topic,
    fn_args,
)
from infersub.errors import (
    LengthMismatchError,
    MixedModelsError,
    MixedVersionsError,
    UnexpectedInputError,
    UnknownFnError,
    UnknownPredicateError,
)
from infersub.operators import (
    FunnelState,
    ModelUpdate,
    aggregate_updates,
    apply_mapping,
    funnel_offer,
    funnel_tick,
    inference_filter,
)


def pub(source="a", seq=1, size=1000, payload=(1.0, 2.0), ts=0, topic="feed/a"):
    return Publication(
        topic=Topic.parse(topic),
        source=source,
        seq=seq,
        ts=Fraction(ts),
        size_bytes=size,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Mappings and filters


def test_mapping_applies_size_law_and_derived_tag():
    stage = StageSpec("s", Mapping("identity"), 1, 1, Fraction(3, 10))
    out = apply_mapping(stage, pub(size=1000))
    assert out.size_bytes == 300
    assert out.tag == "derived"
    assert out.payload == (1.0, 2.0)
    assert out.ts == Fraction(0)  # operators never advance time
    assert out.seq == 1 and out.source == "a"


@given(st.integers(1, 10**6), st.fractions(min_value="1/100", max_value=3))
def test_mapping_size_law_property(size, sel):
    stage = StageSpec("s", Mapping("identity"), 0, 0, Fraction(sel))
    out = apply_mapping(stage, pub(size=size))
    assert out.size_bytes == max(1, math.ceil(size * Fraction(sel)))


def test_mapping_scale_and_affine():
    scale = StageSpec("s", Mapping("scale", fn_args(ratio=2)), 0, 0, 1)
    assert apply_mapping(scale, pub(payload=(1.0, -3.0))).payload == (2.0, -6.0)
    affine = StageSpec("s", Mapping("affine", fn_args(a=2, b=1)), 0, 0, 1)
    assert apply_mapping(affine, pub(payload=(0.0, 4.0))).payload == (1.0, 9.0)


def test_mapping_rejects_wrong_kind_and_unknown_fn():
    filt = StageSpec("s", Filter("threshold"), 0, 0, 1)
    with pytest.raises(ValueError):
        apply_mapping(filt, pub())
    bad = StageSpec("s", Mapping("warp"), 0, 0, 1)
    with pytest.raises(UnknownFnError):
        apply_mapping(bad, pub())


def test_filter_threshold_pass_and_drop():
    stage = StageSpec(
        "s", Filter("threshold", fn_args(index=1, min=2)), 0, 0, Fraction(1, 2)
    )
    passed = inference_filter(stage, pub(payload=(0.0, 5.0), size=100))
    assert passed is not None
    assert passed.size_bytes == 50 and passed.tag == "derived"
    assert inference_filter(stage, pub(payload=(0.0, 1.0))) is None
    # an out-of-range probe index never passes
    assert inference_filter(stage, pub(payload=(3.0,))) is None


def test_filter_rejects_unknown_predicate():
    stage = StageSpec("s", Filter("vibes"), 0, 0, 1)
    with pytest.raises(UnknownPredicateError):
        inference_filter(stage, pub())


# ---------------------------------------------------------------------------
# Funnels


def barrier_state(inputs=("a", "b"), fn="concat", sel=1):
    stage = StageSpec("join", Funnel(fn, Barrier(tuple(inputs))), 0, 0, sel)
    return FunnelState(stage, Topic.parse("pipe/join"))


def test_barrier_emits_once_complete():
    state = barrier_state()
    state, out = funnel_offer(state, pub(source="a", seq=1), Fraction(1))
    assert out is None
    state, out = funnel_offer(state, pub(source="b", seq=1, ts=2), Fraction(3))
    assert out is not None
    assert out.seq == 1 and out.source == "join"
    assert out.ts == Fraction(3)
    assert state.pending == ()
    assert state.next_seq == 2


def test_barrier_newest_wins_per_input():
    state = barrier_state()
    state, _ = funnel_offer(state, pub(source="a", seq=1, payload=(1.0,)), 0)
    state, _ = funnel_offer(state, pub(source="a", seq=2, payload=(2.0,)), 1)
    state, out = funnel_offer(state, pub(source="b", seq=1, payload=(9.0,), topic="feed/b"), 2)
    assert out is not None
    # replaced a-1 never reaches the payload
    assert out.payload == (2.0, 9.0)


def test_barrier_rejects_unexpected_input():
    state = barrier_state()
    with pytest.raises(UnexpectedInputError):
        funnel_offer(state, pub(source="zz", topic="feed/zz"), 0)


def test_barrier_combines_in_canonical_order():
    state = barrier_state(inputs=("a", "b", "c"))
    outs = []
    for src, payload in (("c", (3.0,)), ("a", (1.0,)), ("b", (2.0,))):
        state, out = funnel_offer(
            state, pub(source=src, payload=payload, topic=f"feed/{src}"), 0
        )
        outs.append(out)
    assert outs[:2] == [None, None]
    assert outs[2] is not None and outs[2].payload == (1.0, 2.0, 3.0)


@given(st.permutations([("a", (1.0,)), ("b", (2.0,)), ("c", (3.0,))]))
def test_barrier_emission_is_arrival_order_independent(order):
    state = barrier_state(inputs=("a", "b", "c"))
    final = None
    for src, payload in order:
        state, final = funnel_offer(
            state, pub(source=src, payload=payload, topic=f"feed/{src}"), 5
        )
    assert final is not None
    assert final.payload == (1.0, 2.0, 3.0)
    assert final.size_bytes == 3000


def test_count_window_emits_every_nth():
    stage = StageSpec("join", Funnel("concat", CountWindow(3)), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"))
    emissions = 0
    for i in range(1, 11):
        state, out = funnel_offer(state, pub(seq=i), i)
        if out is not None:
            emissions += 1
            assert out.seq == emissions
    assert emissions == 3
    assert len(state.pending) == 1


def test_count_window_of_one_passes_through():
    stage = StageSpec("join", Funnel("concat", CountWindow(1)), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"))
    state, out = funnel_offer(state, pub(payload=(7.0,)), 0)
    assert out is not None and out.payload == (7.0,)


def test_time_window_opens_then_emits_at_exact_boundary():
    stage = StageSpec("join", Funnel("concat", TimeWindow(10)), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"))
    state, out = funnel_offer(state, pub(seq=1), Fraction(5))
    assert out is None and state.window_open_ts == Fraction(5)
    state, out = funnel_offer(state, pub(seq=2), Fraction(9))
    assert out is None and state.window_open_ts == Fraction(5)  # still the first
    state2, out = funnel_tick(state, Fraction(15) - Fraction(1, 10**6))
    assert out is None and state2 is state
    state, out = funnel_tick(state, Fraction(15))
    assert out is not None and out.ts == Fraction(15)
    assert len(out.payload) == 4
    assert state.window_open_ts is None and state.pending == ()


def test_time_window_tick_without_window_is_noop():
    stage = StageSpec("join", Funnel("concat", TimeWindow(10)), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"))
    state2, out = funnel_tick(state, Fraction(100))
    assert out is None and state2 is state


def test_tick_rejects_non_time_funnels():
    with pytest.raises(ValueError):
        funnel_tick(barrier_state(), 0)


def test_funnel_state_requires_funnel_stage():
    with pytest.raises(ValueError):
        FunnelState(StageSpec("s", Mapping("identity"), 0, 0, 1), Topic.parse("t"))


def test_funnel_replay_is_deterministic():
    script = [
        ("a", 1, (1.0,)),
        ("b", 1, (2.0,)),
        ("a", 2, (3.0,)),
        ("a", 3, (4.0,)),
        ("b", 2, (5.0,)),
    ]

    def run():
        state = barrier_state()
        outs = []
        for i, (src, seq, payload) in enumerate(script):
            state, out = funnel_offer(
                state, pub(source=src, seq=seq, payload=payload, topic=f"feed/{src}"), i
            )
            outs.append(out)
        return state, outs

    s1, o1 = run()
    s2, o2 = run()
    assert o1 == o2
    assert s1.pending == s2.pending
    assert s1.next_seq == s2.next_seq


def test_emission_seq_continues_from_seeded_counter():
    stage = StageSpec("join", Funnel("concat", CountWindow(1)), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"), next_seq=41)
    state, out = funnel_offer(state, pub(), 0)
    assert out is not None and out.seq == 41
    state, out = funnel_offer(state, pub(seq=2), 1)
    assert out is not None and out.seq == 42


POLICIES = st.one_of(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True).map(
        lambda inputs: Barrier(tuple(sorted(inputs)))
    ),
    st.integers(1, 4).map(CountWindow),
    st.integers(1, 5).map(TimeWindow),
)


@given(
    POLICIES,
    st.integers(1, 50),
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 3), st.booleans()),
             max_size=12),
)
def test_funnel_steps_build_the_state_replace_would(policy, next_seq, steps):
    """Each funnel_offer and funnel_tick step returns the next state that
    dataclasses.replace would build from the state before it."""
    stage = StageSpec("join", Funnel("concat", policy), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"), next_seq=next_seq)
    now = Fraction(0)
    for i, (source, gap, tick) in enumerate(steps):
        now += gap
        if isinstance(policy, Barrier) and source not in policy.inputs:
            source = policy.inputs[0]
        emitted = dataclasses.replace(
            state, pending=(), window_open_ts=None, next_seq=state.next_seq + 1
        )
        if tick and isinstance(policy, TimeWindow):
            nxt, out = funnel_tick(state, now)
            assert nxt == (state if out is None else emitted)
            state = nxt
            continue
        p = pub(source=source, seq=i + 1, topic=f"feed/{source}")
        nxt, out = funnel_offer(state, p, now)
        if isinstance(policy, Barrier):
            pending = tuple(sorted(
                [(iid, q) for iid, q in state.pending if iid != source] + [(source, p)],
                key=lambda pair: pair[0],
            ))
            full = len(pending) == len(policy.inputs)
            want = dataclasses.replace(state, pending=pending)
        elif isinstance(policy, CountWindow):
            pending = state.pending + ((source, p),)
            full = len(pending) >= policy.n
            want = dataclasses.replace(state, pending=pending)
        else:
            opened = now if state.window_open_ts is None else state.window_open_ts
            full = False
            want = dataclasses.replace(
                state, pending=state.pending + ((source, p),), window_open_ts=opened
            )
        assert (out is not None) == full
        assert nxt == (emitted if full else want)
        assert nxt.stage is stage
        state = nxt


def test_funnel_mean_combine():
    stage = StageSpec("join", Funnel("mean", Barrier(("a", "b"))), 0, 0, 1)
    state = FunnelState(stage, Topic.parse("pipe/join"))
    state, _ = funnel_offer(state, pub(source="a", payload=(1.0, 5.0)), 0)
    _, out = funnel_offer(
        state, pub(source="b", payload=(3.0, 7.0), topic="feed/b"), 0
    )
    assert out is not None
    assert out.payload == (2.0, 6.0)


# ---------------------------------------------------------------------------
# Update aggregation


def test_aggregate_updates_mean_is_exact():
    got = aggregate_updates(
        [
            ModelUpdate("m", 3, (1.0, 0.0)),
            ModelUpdate("m", 3, (2.0, 0.1)),
            ModelUpdate("m", 3, (3.0, 0.2)),
        ]
    )
    assert got.model_id == "m" and got.version == 3
    assert got.delta[0] == 2.0
    assert got.delta[1] == float(
        (Fraction(0.0) + Fraction(0.1) + Fraction(0.2)) / 3
    )


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_aggregate_updates_is_permutation_invariant(rows, rnd):
    updates = [ModelUpdate("m", 1, row) for row in rows]
    shuffled = list(updates)
    rnd.shuffle(shuffled)
    assert aggregate_updates(updates) == aggregate_updates(shuffled)


def test_aggregate_updates_idempotent_on_identical_inputs():
    u = ModelUpdate("m", 2, (0.5, -1.5))
    assert aggregate_updates([u, u, u]).delta == u.delta


def test_aggregate_updates_rejects_mixed_input():
    with pytest.raises(MixedModelsError):
        aggregate_updates([ModelUpdate("m", 1, (1.0,)), ModelUpdate("n", 1, (1.0,))])
    with pytest.raises(MixedVersionsError):
        aggregate_updates([ModelUpdate("m", 1, (1.0,)), ModelUpdate("m", 2, (1.0,))])
    with pytest.raises(LengthMismatchError):
        aggregate_updates([ModelUpdate("m", 1, (1.0,)), ModelUpdate("m", 1, (1.0, 2.0))])
    with pytest.raises(ValueError):
        aggregate_updates([])

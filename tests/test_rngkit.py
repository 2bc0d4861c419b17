"""Stream-identity tests for the bulk RNG kit and pass-A closed forms.

The vectorized backend replaces scalar ``random.Random`` draws and branch
``next_outcome`` loops with bulk array materialization.  These tests pin
the contract word-for-word: every materialized value must be bit-identical
to what the scalar call sequence would have produced.  Address-stream
plans must also leave the scalar object in exactly the state the scalar
sequence would leave it in (so scalar and batched execution can
interleave freely); an owned branch stream instead transplants at most
once and never writes back.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    GlobalHistory,
    LoopBranch,
    PatternBranch,
)
from repro.sim.backends import rngkit
from repro.sim.backends.rngkit import (
    OwnedStream,
    peek_words,
    plan_stream_draws,
    write_back,
)
from repro.sim.backends.vectorized import (
    _make_biased_refill,
    _make_loop_refill,
    _make_pattern_refill,
    _sat2_apply,
)
from repro.workloads.generator import AddressStream, MemoryBehavior


# ---------------------------------------------------------------------------
# Word-stream identity
# ---------------------------------------------------------------------------


def _count_transplants(monkeypatch):
    calls = []
    real = rngkit._transplant

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(rngkit, "_transplant", counted)
    return calls


@pytest.mark.parametrize("demand, transplants", [(39, 0), (40, 0), (41, 1)])
def test_owned_stream_matches_scalar_around_the_threshold(
    monkeypatch, demand, transplants
):
    """Demand just below, exactly at and just past the threshold."""
    monkeypatch.setattr(rngkit, "_TRANSPLANT_AFTER", 40)
    calls = _count_transplants(monkeypatch)
    scalar = random.Random(2024)
    stream = OwnedStream(random.Random(2024))
    got: list = []
    chunk = 4  # refill-shaped requests: doubling, the last one trimmed
    while len(got) < demand:
        got += stream.randoms(min(chunk, demand - len(got))).tolist()
        chunk *= 2
    assert got == [scalar.random() for _ in range(demand)]
    assert len(calls) == transplants


def test_owned_stream_transplants_once(monkeypatch):
    monkeypatch.setattr(rngkit, "_TRANSPLANT_AFTER", 40)
    calls = _count_transplants(monkeypatch)
    scalar = random.Random(7)
    stream = OwnedStream(random.Random(7))
    got: list = []
    for n in (30, 0, 25, 1, 700, 0, 3):
        values = stream.randoms(n)
        assert values.dtype == np.float64 and len(values) == n
        got += values.tolist()
    assert got == [scalar.random() for _ in range(len(got))]
    assert len(calls) == 1


def test_owned_stream_does_not_write_back(monkeypatch):
    """The run owns the stream: ``rng`` stays where the transplant found it."""
    monkeypatch.setattr(rngkit, "_TRANSPLANT_AFTER", 10)
    rng = random.Random(99)
    stream = OwnedStream(rng)
    stream.randoms(10)
    state = rng.getstate()
    stream.randoms(500)
    assert rng.getstate() == state


def test_mirror_invalidated_by_foreign_draw():
    scalar = random.Random(9)
    batched = random.Random(9)
    write_back(batched, batched.getstate(), 16)
    mirror = batched._rk_mirror[0]
    for _ in range(16):
        scalar.getrandbits(32)
    # A draw the kit didn't make: the cached mirror is now stale and the
    # state compare must force a fresh transplant, not reuse.
    assert batched.random() == scalar.random()
    write_back(batched, batched.getstate(), 16)
    assert batched._rk_mirror[0] is not mirror
    for _ in range(16):
        scalar.getrandbits(32)
    assert batched.getstate() == scalar.getstate()


def test_write_back_mirror_is_reused_across_plans():
    scalar = random.Random(77)
    batched = random.Random(77)
    write_back(batched, batched.getstate(), 64)
    mirror = batched._rk_mirror[0]
    # No foreign draw in between: the cached bit generator is reused.
    write_back(batched, batched.getstate(), 128)
    assert batched._rk_mirror[0] is mirror
    for _ in range(192):
        scalar.getrandbits(32)
    assert batched.getstate() == scalar.getstate()


def test_peek_words_does_not_advance():
    rng = random.Random(5)
    state = rng.getstate()
    peeked = peek_words(state, 64)
    assert rng.getstate() == state
    assert peeked.tolist() == [rng.getrandbits(32) for _ in range(64)]


def test_write_back_advances_exactly():
    scalar = random.Random(31)
    batched = random.Random(31)
    state = batched.getstate()
    write_back(batched, state, 7)
    for _ in range(7):
        scalar.getrandbits(32)
    assert batched.getstate() == scalar.getstate()
    # n_words == 0 restores the given state verbatim.
    write_back(batched, state, 0)
    assert batched.getstate() == state


# ---------------------------------------------------------------------------
# AddressStream control-flow replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "behavior",
    [
        MemoryBehavior(working_set_kb=4, pattern="loop", random_frac=0.3),
        MemoryBehavior(working_set_kb=3, pattern="random", random_frac=0.0),
        MemoryBehavior(working_set_kb=6, pattern="random", random_frac=0.4),
    ],
    ids=["loop-mixed", "pure-random", "random-mixed"],
)
def test_plan_stream_draws_matches_scalar(behavior):
    n = 500
    scalar = AddressStream(behavior, base=1 << 20, seed=2026)
    batched = AddressStream(behavior, base=1 << 20, seed=2026)
    expect = [scalar.next() for _ in range(n)]
    is_rand, rand_off = plan_stream_draws(batched, n)
    got = []
    cursor = 0
    stride = behavior.stride
    ws = batched._ws_bytes
    for flag, off in zip(is_rand.tolist(), rand_off.tolist()):
        if flag:
            got.append(batched.base + off)
        else:
            got.append(batched.base + cursor)
            cursor = (cursor + stride) % ws
    assert got == expect
    assert batched._rng.getstate() == scalar._rng.getstate()


# ---------------------------------------------------------------------------
# Closed-form outcome refills (pass A) at state boundaries
# ---------------------------------------------------------------------------

_HIST = GlobalHistory()


def _drain_refill(maker, model, tsucc=7, fsucc=9):
    otk: list = []
    osucc: list = []
    refill = maker(otk, osucc, model, tsucc, fsucc)
    refill()
    refill()  # second chunk starts from mid-stream model state
    return otk, osucc


@pytest.mark.parametrize("period", [2, 3, 5])
def test_loop_refill_matches_scalar_at_every_phase(period):
    for start in range(period):
        model = LoopBranch(period)
        model._count = start
        ref = LoopBranch(period)
        ref._count = start
        otk, osucc = _drain_refill(_make_loop_refill, model)
        expect = [int(ref.next_outcome(_HIST)) for _ in range(len(otk))]
        assert otk == expect
        assert osucc == [7 if t else 9 for t in expect]
        assert model._count == ref._count


def test_pattern_refill_matches_scalar_at_every_phase():
    pattern = (True, True, False, True, False)
    for start in range(len(pattern)):
        model = PatternBranch(pattern)
        model._pos = start
        ref = PatternBranch(pattern)
        ref._pos = start
        otk, osucc = _drain_refill(_make_pattern_refill, model)
        expect = [int(ref.next_outcome(_HIST)) for _ in range(len(otk))]
        assert otk == expect
        assert osucc == [7 if t else 9 for t in expect]
        assert model._pos == ref._pos


def test_biased_refill_matches_scalar_stream(monkeypatch):
    # The first chunk (64 values) draws scalar, the second transplants.
    monkeypatch.setattr(rngkit, "_TRANSPLANT_AFTER", 100)
    model = BiasedBranch(0.31, seed=11)
    ref = BiasedBranch(0.31, seed=11)
    otk, osucc = _drain_refill(_make_biased_refill, model)
    expect = [int(ref.next_outcome(_HIST)) for _ in range(len(otk))]
    assert otk == expect
    assert osucc == [7 if t else 9 for t in expect]
    # No write-back: the model's own Random stopped at the transplant.
    at_transplant = BiasedBranch(0.31, seed=11)
    for _ in range(64):
        at_transplant.next_outcome(_HIST)
    assert model._rng.getstate() == at_transplant._rng.getstate()


@pytest.mark.parametrize("invert", [False, True])
def test_global_correlated_closed_form(invert):
    offsets = (0, 3, 15)
    model = GlobalCorrelatedBranch(offsets=offsets, noise=0.0, invert=invert)
    mask = 0
    for off in offsets:
        mask |= 1 << off
    hist = GlobalHistory(depth=16)
    feed = random.Random(3)
    for _ in range(64):
        # The walk's closed form: parity of the masked history bits.
        closed = bool((hist.bits & mask).bit_count() & 1) ^ invert
        assert model.next_outcome(hist) == closed
        hist.push(feed.random() < 0.5)


# ---------------------------------------------------------------------------
# Saturating-counter scan kernel
# ---------------------------------------------------------------------------


def test_sat2_apply_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 100, 1000):
        cells = rng.integers(0, 6, size=n)
        tk = rng.integers(0, 2, size=n).astype(bool)
        table_a = [int(x) for x in rng.integers(0, 4, size=6)]
        table_b = list(table_a)
        pre_ref = []
        for c, t in zip(cells.tolist(), tk.tolist()):
            x = table_b[c]
            pre_ref.append(x)
            table_b[c] = min(3, max(0, x + (1 if t else -1)))
        pre = _sat2_apply(table_a, cells, tk)
        assert pre.tolist() == pre_ref
        assert table_a == table_b

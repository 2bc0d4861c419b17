"""Stream-identity tests for the bulk RNG kit and pass-A closed forms.

The vectorized backend replaces scalar ``random.Random`` draws and branch
``next_outcome`` loops with bulk array materialization.  These tests pin
the contract word-for-word: every materialized value must be bit-identical
to what the scalar call sequence would have produced, and every bulk draw
must leave the ``random.Random`` it drew from exactly where the scalar
sequence would leave it (so scalar and batched execution can interleave
freely).
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import islice

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
    draw_words,
    peek_words,
    plan_stream_draws,
    write_back,
)
from repro.sim.backends.vectorized import (
    _biased_outcomes,
    _loop_outcomes,
    _noise_flips,
    _pattern_outcomes,
)
from repro.workloads.generator import AddressStream, MemoryBehavior


# ---------------------------------------------------------------------------
# Word-stream identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 623, 624, 625, 28_000])
def test_draw_words_match_getrandbits(n):
    """Word ``i`` is the ``i``-th ``getrandbits(32)`` draw, in order."""
    scalar = random.Random(1234)
    batched = random.Random(1234)
    words = draw_words(batched, n)
    assert words.dtype == np.uint32 and len(words) == n
    assert words.tolist() == [scalar.getrandbits(32) for _ in range(n)]
    assert batched.getstate() == scalar.getstate()


def test_owned_stream_matches_scalar_across_chunks():
    """Values equal scalar ``random()`` calls, and the generator ends each
    request where that many calls leave it."""
    scalar = random.Random(7)
    rng = random.Random(7)
    stream = OwnedStream(rng)
    for n in (30, 0, 25, 1, 64, 128, 700, 0, 3):
        values = stream.randoms(n)
        assert values.dtype == np.float64 and len(values) == n
        assert values.tolist() == [scalar.random() for _ in range(n)]
        assert rng.getstate() == scalar.getstate()


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


def _addresses(stream, is_rand, rand_off):
    """The addresses a plan stands for, from a cursor at 0."""
    got = []
    cursor = 0
    for flag, off in zip(is_rand.tolist(), rand_off.tolist()):
        if flag:
            got.append(stream.base + off)
        else:
            got.append(stream.base + cursor)
            cursor = (cursor + stream.behavior.stride) % stream._ws_bytes
    return got


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
    assert _addresses(batched, is_rand, rand_off) == expect
    assert batched._rng.getstate() == scalar._rng.getstate()


def test_plan_that_regrows_leaves_rng_where_scalar_draws_would(monkeypatch):
    """A first parse that runs short draws on: the new words continue the
    sequence, and the generator still ends where the scalar draws would."""
    behavior = MemoryBehavior(working_set_kb=6, pattern="random", random_frac=0.4)
    real = rngkit._parse_draws
    seen = []

    def short_first(w, *args):
        seen.append(w.copy())
        return real(w[:40] if len(seen) == 1 else w, *args)

    monkeypatch.setattr(rngkit, "_parse_draws", short_first)
    n = 300
    scalar = AddressStream(behavior, base=1 << 20, seed=77)
    batched = AddressStream(behavior, base=1 << 20, seed=77)
    expect = [scalar.next() for _ in range(n)]
    is_rand, rand_off = plan_stream_draws(batched, n)
    assert len(seen) == 2
    assert len(seen[1]) > len(seen[0])
    assert seen[1][: len(seen[0])].tolist() == seen[0].tolist()
    assert _addresses(batched, is_rand, rand_off) == expect
    assert batched._rng.getstate() == scalar._rng.getstate()


#: The address stream of gems' ``field_update`` phase.
_FIELD_UPDATE = MemoryBehavior(working_set_kb=700, pattern="loop", random_frac=0.35)


@pytest.mark.parametrize("n", [9_000, 36_000])
def test_plan_stream_draws_memory_per_access(n):
    """A plan's transients stay a small constant per access, word for word.

    Its ``uint32``/``int32``/bool arrays come to about 50-60 bytes an
    access here; the ``int64`` arrays and per-round concatenations they
    replaced took about 270.
    """
    scalar = AddressStream(_FIELD_UPDATE, base=1 << 30, seed=201)
    batched = AddressStream(_FIELD_UPDATE, base=1 << 30, seed=201)
    tracemalloc.start()
    try:
        is_rand, rand_off = plan_stream_draws(batched, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * n, peak / n
    assert _addresses(batched, is_rand, rand_off) == [scalar.next() for _ in range(n)]
    assert batched._rng.getstate() == scalar._rng.getstate()


# ---------------------------------------------------------------------------
# Closed-form outcome chunks (pass A) at state boundaries
# ---------------------------------------------------------------------------

_HIST = GlobalHistory()

#: Two chunks: 64 values, then 128 drawn from mid-stream model state.
_TWO_CHUNKS = 64 + 128


def _two_chunks(outcomes):
    return list(islice(outcomes, _TWO_CHUNKS))


def _assert_outcomes(pairs, ref, tsucc=7, fsucc=9):
    expect = [int(ref.next_outcome(_HIST)) for _ in range(_TWO_CHUNKS)]
    assert [t for t, _ in pairs] == expect
    assert [s for _, s in pairs] == [tsucc if t else fsucc for t in expect]


@pytest.mark.parametrize("period", [2, 3, 5])
def test_loop_refill_matches_scalar_at_every_phase(period):
    for start in range(period):
        model = LoopBranch(period)
        model._count = start
        ref = LoopBranch(period)
        ref._count = start
        _assert_outcomes(_two_chunks(_loop_outcomes(model, 7, 9)), ref)
        # Exactly two chunks were drawn, so the counter sits where 192
        # scalar calls leave it.
        assert model._count == ref._count


def test_pattern_refill_matches_scalar_at_every_phase():
    pattern = (True, True, False, True, False)
    for start in range(len(pattern)):
        model = PatternBranch(pattern)
        model._pos = start
        ref = PatternBranch(pattern)
        ref._pos = start
        _assert_outcomes(_two_chunks(_pattern_outcomes(model, 7, 9)), ref)
        assert model._pos == ref._pos


def test_biased_refill_matches_scalar_stream():
    model = BiasedBranch(0.31, seed=11)
    ref = BiasedBranch(0.31, seed=11)
    _assert_outcomes(_two_chunks(_biased_outcomes(model, 7, 9)), ref)
    # The two chunks drew their words from the model's own Random, which
    # sits where the 192 scalar draws leave the reference's.
    assert model._rng.getstate() == ref._rng.getstate()


def test_noise_flips_match_scalar_stream():
    """A GlobalCorrelated branch's noise stream, flip for flip."""
    offsets = (0, 3, 15)
    model = GlobalCorrelatedBranch(offsets=offsets, noise=0.3, seed=5)
    ref = GlobalCorrelatedBranch(offsets=offsets, noise=0.3, seed=5)
    flips = list(islice(_noise_flips(model), _TWO_CHUNKS))
    # With an all-zero history the clean outcome is ``invert`` (False), so
    # each scalar outcome is its noise flip.
    hist = GlobalHistory(depth=16)
    assert flips == [int(ref.next_outcome(hist)) for _ in range(_TWO_CHUNKS)]
    assert 0 < sum(flips) < _TWO_CHUNKS
    assert model._rng.getstate() == ref._rng.getstate()


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

"""Bulk materialization of CPython ``random.Random`` streams (bit-exact).

The workload generator owns many small ``random.Random`` instances — one
per biased/random branch model, one per address stream — and the reference
loop consumes them one draw at a time.  Those draws are pure functions of
the Mersenne Twister 32-bit word stream: ``random()`` is ``genrand_res53``
over two consecutive words and ``getrandbits(k <= 32)`` is one word shifted
down by ``32 - k``.  NumPy's ``MT19937`` bit generator exposes exactly that
word stream (``random_raw``), and its 624-word key + position state is the
same structure ``random.Random.getstate()`` returns.

Two ways of drawing in bulk build on that identity:

- :class:`OwnedStream` takes over a branch model's ``random()`` stream for
  the rest of a run.  It calls ``rng.random()`` itself while the stream's
  total demand is small, and past :data:`_TRANSPLANT_AFTER` values it
  transplants the state into an ``MT19937`` once and reads raw words from
  it from then on.  The state is never written back.  A buffered model's
  refills are the only consumer of its ``random.Random`` during a run, and
  workloads are single-use, so nothing reads that state afterwards; the
  refills over-draw (they materialize outcomes ahead of the walk) and so
  already left it somewhere no scalar sequence would.
- :func:`plan_stream_draws` replays the *control flow* of
  ``AddressStream.next()`` for mixed (``random_frac > 0``) and pure random
  streams without a scalar loop: each access consumes a variable number of
  words (a 2-word uniform draw for the mix test, then a rejection loop of
  1-word ``randrange`` attempts on the random path), so the access start
  positions form an orbit of a per-position jump function, which is
  evaluated by pointer doubling over the materialized words.  The plan
  leaves ``stream._rng`` exactly where the scalar draws would
  (:func:`peek_words` + :func:`write_back`), because the vectorized loop
  draws from the same stream scalar at window-boundary blocks.

Stream identity (word-for-word, draw-for-draw, including the state
round-trip) is pinned by ``tests/test_rngkit.py``.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Tuple

import numpy as np
from numpy.random import MT19937

__all__ = ["OwnedStream", "peek_words", "write_back", "plan_stream_draws"]

#: ``genrand_res53`` scale: doubles are ``(a*2**26 + b) / 2**53`` with
#: ``a = word >> 5`` and ``b = word >> 6`` (CPython ``_randommodule.c``).
_RES53_SCALE = 1.0 / 9007199254740992.0

_EMPTY_U32 = np.empty(0, dtype=np.uint32)

#: Indices per ``np.take`` call in the plan's pointer doubling.
_GATHER_CHUNK = 16384

#: Values an :class:`OwnedStream` draws through its own ``random.Random``
#: before it moves to numpy, so a stream that a run drains only a little
#: never pays for a transplant.  On a 2-vCPU host a transplant took
#: 0.34 ms and a value 95 ns scalar against 16 ns from raw words.  The
#: 32 vectorized jobs of a 40k-instruction ``sim`` pass took 1.18 s with
#: no scalar prefix (0) and 0.83-0.95 s at 512, 1024, 2048 and 4096,
#: which were within noise of each other.
_TRANSPLANT_AFTER = 1024


def _transplant(state) -> MT19937:
    """NumPy MT19937 bit generator positioned at a ``getstate()`` tuple."""
    version, internal, _gauss = state
    if version != 3 or len(internal) != 625:  # pragma: no cover - defensive
        raise ValueError("unsupported random.Random state version")
    bg = MT19937()
    st = bg.state
    st["state"]["key"] = np.asarray(internal[:-1], dtype=np.uint64)
    st["state"]["pos"] = internal[-1]
    bg.state = st
    return bg


def _read_state(bg: MT19937, gauss) -> tuple:
    st = bg.state["state"]
    # .tolist() converts the 624-word key to Python ints in C; a genexpr
    # of int() calls here is measurable (plans run this per flush).
    return (3, tuple(st["key"].tolist()) + (int(st["pos"]),), gauss)


def _mirror(rng, state) -> MT19937:
    """A positioned bit generator for ``rng``, reusing the cached mirror.

    Building an ``MT19937`` and loading its state costs ~350us; a cached
    mirror is already positioned, so when ``rng`` hasn't been drawn from
    since we last wrote its state back (checked with one C-level tuple
    compare, ~12us) the transplant is skipped entirely.  Any foreign draw
    changes the state tuple and falls back to a fresh transplant.
    """
    cached = getattr(rng, "_rk_mirror", None)
    if cached is not None and cached[1] == state:
        return cached[0]
    return _transplant(state)


def peek_words(state, n: int, rng=None) -> np.ndarray:
    """The ``n`` 32-bit outputs following ``state``, without advancing it.

    Given the ``rng`` that sits at ``state``, the words come from its
    mirror (:func:`_mirror`), whose position is saved and restored around
    the read, and that mirror is cached, so the :func:`write_back` that
    follows reuses it: a plan then builds no ``MT19937`` when the cached
    mirror is current, and one instead of two when it is not.
    """
    if n <= 0:
        return _EMPTY_U32
    if rng is None:
        return _transplant(state).random_raw(n).astype(np.uint32)
    bg = _mirror(rng, state)
    start = bg.state
    words = bg.random_raw(n).astype(np.uint32)
    bg.state = start
    rng._rk_mirror = (bg, state)
    return words


def write_back(rng, state, n_words: int) -> None:
    """Set ``rng`` to ``state`` advanced by exactly ``n_words`` outputs."""
    if n_words <= 0:
        rng.setstate(state)
        return
    bg = _mirror(rng, state)
    bg.random_raw(n_words, output=False)
    new_state = _read_state(bg, state[2])
    rng.setstate(new_state)
    rng._rk_mirror = (bg, new_state)


class OwnedStream:
    """The rest of one ``random.Random``'s ``random()`` stream, for one run.

    :meth:`randoms` returns the next ``n`` values ``rng.random()`` would
    return.  While the stream's total demand stays within
    :data:`_TRANSPLANT_AFTER` values it makes those calls itself; the
    first request past it transplants ``rng``'s state into an ``MT19937``
    once, and every later value comes from that generator's raw words.
    ``rng`` is not advanced past the transplant (see the module
    docstring), so the owner must be its only consumer from then on.
    """

    __slots__ = ("_rng", "_bg", "_drawn")

    def __init__(self, rng) -> None:
        self._rng = rng
        self._bg = None
        self._drawn = 0

    def randoms(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``rng.random()`` as a float64 array."""
        bg = self._bg
        if bg is None:
            drawn = self._drawn + n
            if drawn <= _TRANSPLANT_AFTER:
                self._drawn = drawn
                draw = self._rng.random
                return np.array([draw() for _ in repeat(None, n)], dtype=np.float64)
            bg = self._bg = _transplant(self._rng.getstate())
        # Each value is genrand_res53 over two consecutive words, computed
        # on exact integers below 2**53, so it equals the scalar call.
        w = bg.random_raw(2 * n)
        return ((w[0::2] >> 5) * 67108864 + (w[1::2] >> 6)) * _RES53_SCALE


def _parse_draws(w, n, frac, ws, k, pure_random):
    """One parse attempt over ``len(w)`` materialized ``uint32`` words.

    Returns ``(used_words, is_rand, rand_off)`` or ``None`` when ``w`` is
    too short for ``n`` accesses (the caller regrows and retries).  Its
    transients are ``int32``/``uint32``/bool arrays over the words, each
    dropped once dead, so a plan costs a small constant per access.
    """
    W = len(w)
    shift = 32 - k
    # nxt[j]: the first accepted randrange word at or after j (a word is
    # accepted when ``w >> shift < ws``), or W when there is none; the two
    # extra entries serve scans that start past the end.
    nxt = np.arange(W + 2, dtype=np.int32)
    np.putmask(nxt[:W], w >= ws << shift, W)
    nxt[W:] = W
    np.minimum.accumulate(nxt[::-1], out=nxt[::-1])
    # g[i]: where the access starting at word i ends, which is the next
    # access's start; W + 1 is a sticky "ran out of words" sentinel.
    np.add(nxt, 1, out=nxt)
    take_rand = None
    if not frac:
        # Pure random pattern without a mix test: one rejection scan each.
        g = nxt
    elif pure_random:
        # Both branches of next() reach randrange on a pure-random
        # pattern: a 2-word uniform draw, then a rejection scan from i+2.
        g = np.empty(W + 2, dtype=np.int32)
        g[:W] = nxt[2:]
        g[W:] = W + 1
    else:
        # The mix test ``random() < frac`` over words (i, i+1), exactly on
        # integers: random() is X / 2**53 with X = (w[i] >> 5) * 2**26 +
        # (w[i+1] >> 6), so the test is X < ceil(frac * 2**53) = t.
        t = math.ceil(frac / _RES53_SCALE)
        ta, tb = t >> 26, t & 0x3FFFFFF
        take_rand = np.zeros(W, dtype=bool)
        head = w[:-1]
        np.less(head, ta << 5, out=take_rand[:-1])
        tie = head < (ta + 1) << 5
        tie ^= take_rand[:-1]
        tie = np.flatnonzero(tie)
        take_rand[tie] = (w[tie + 1] >> 6) < tb
        del tie, head
        g = np.arange(2, W + 4, dtype=np.int32)
        np.copyto(g[:W], nxt[2:], where=take_rand)
        g[W:] = W + 1
    del nxt

    # Access start positions = the orbit of g from 0, by pointer doubling
    # (g is strictly increasing until the sticky sentinel).  The orbit has
    # n + 1 entries: the last is where the n-th access ends.
    orbit = np.empty(n + 1, dtype=np.int64)
    orbit[0] = 0
    have = 1
    jump = g
    del g
    spare = None
    while True:
        step = min(have, n + 1 - have)
        orbit[have : have + step] = jump[orbit[:step]]
        have += step
        if have > n:
            break
        doubled = np.empty_like(jump) if spare is None else spare
        # take() widens int32 indices to intp; in chunks that copy stays
        # small.
        for a in range(0, W + 2, _GATHER_CHUNK):
            b = a + _GATHER_CHUNK
            np.take(jump, jump[a:b], out=doubled[a:b], mode="clip")
        jump, spare = doubled, jump
    del jump, spare
    if orbit[n - 1] >= W:
        return None
    used = int(orbit[n])
    if used > W:
        return None

    ends = orbit[1:]
    if take_rand is not None:
        is_rand = take_rand[orbit[:-1]]
        del take_rand
        rand_off = np.zeros(n, dtype=np.int64)
        rand_off[is_rand] = w[ends[is_rand] - 1] >> shift
    else:
        is_rand = np.ones(n, dtype=bool)
        rand_off = (w[ends - 1] >> shift).astype(np.int64)
    return used, is_rand, rand_off


def plan_stream_draws(stream, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Plan the RNG-dependent part of the next ``n`` ``AddressStream`` draws.

    Returns ``(is_rand, rand_off)``: per access, whether it takes the
    uniform-random path, and — where it does — the ``randrange(ws_bytes)``
    value (zero elsewhere).  ``stream._rng`` is advanced exactly as ``n``
    scalar ``next()`` calls would advance it; applying the deterministic
    cursor advance for the ``~is_rand`` accesses is the caller's job.
    """
    behavior = stream.behavior
    frac = behavior.random_frac
    ws = stream._ws_bytes
    k = ws.bit_length()
    pure_random = behavior.pattern == "random"
    state = stream._rng.getstate()
    attempts = float(1 << k) / float(ws)  # expected randrange words/draw
    if frac and not pure_random:
        per = 2.0 + frac * attempts
    elif frac:
        per = 2.0 + attempts
    else:
        per = attempts
    need = int(n * per * 1.10) + 80
    while True:
        words = peek_words(state, need, stream._rng)
        plan = _parse_draws(words, n, frac, ws, k, pure_random)
        if plan is not None:
            break
        need += (need >> 1) + 80
    used, is_rand, rand_off = plan
    write_back(stream._rng, state, used)
    return is_rand, rand_off

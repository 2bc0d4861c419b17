"""Bulk materialization of CPython ``random.Random`` streams (bit-exact).

The workload generator owns many small ``random.Random`` instances — one
per biased/random branch model, one per address stream — and the reference
loop consumes them one draw at a time.  Those draws are pure functions of
the Mersenne Twister 32-bit word stream: ``random()`` is ``genrand_res53``
over two consecutive words and ``getrandbits(k <= 32)`` is one word shifted
down by ``32 - k``.  ``rng.getrandbits(32 * n)`` returns the next ``n``
words of that stream as one integer, least significant word first, so its
little-endian bytes are the words in order (:func:`draw_words`) and the
generator advances by exactly ``n`` words.

Two ways of drawing in bulk build on that identity:

- :class:`OwnedStream` takes over a branch model's ``random()`` stream for
  the rest of a run: each request draws its ``2n`` words from the model's
  own ``random.Random``, so the generator ends every request exactly where
  ``n`` scalar ``random()`` calls would leave it.  A buffered model's
  refills over-draw (they materialize outcomes ahead of the walk), so after
  a run the generator sits somewhere no scalar sequence would; workloads
  are single-use, and nothing reads it then.
- :func:`plan_stream_draws` replays the *control flow* of
  ``AddressStream.next()`` for mixed (``random_frac > 0``) and pure random
  streams without a scalar loop: each access consumes a variable number of
  words (a 2-word uniform draw for the mix test, then a rejection loop of
  1-word ``randrange`` attempts on the random path), so the access start
  positions form an orbit of a per-position jump function, which is
  evaluated by pointer doubling over the materialized words.  The plan
  leaves ``stream._rng`` exactly where the scalar draws would
  (:func:`write_back`), because the vectorized loop draws from the same
  stream scalar at window-boundary blocks.

Stream identity (word-for-word, draw-for-draw, including each generator's
end state) is pinned by ``tests/test_rngkit.py``.
"""

from __future__ import annotations

import math
import random
from typing import Tuple

import numpy as np

__all__ = [
    "OwnedStream",
    "draw_words",
    "peek_words",
    "write_back",
    "plan_stream_draws",
]

#: ``genrand_res53`` scale: doubles are ``(a*2**26 + b) / 2**53`` with
#: ``a = word >> 5`` and ``b = word >> 6`` (CPython ``_randommodule.c``).
_RES53_SCALE = 1.0 / 9007199254740992.0

_EMPTY_U32 = np.empty(0, dtype=np.uint32)

#: Indices per ``np.take`` call in the plan's pointer doubling.
_GATHER_CHUNK = 16384


def draw_words(rng, n: int) -> np.ndarray:
    """The next ``n`` 32-bit outputs of ``rng``, drawn from it, as ``uint32``."""
    if n <= 0:
        return _EMPTY_U32
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")


def peek_words(state, n: int) -> np.ndarray:
    """The ``n`` 32-bit outputs following a ``getstate()`` tuple."""
    rng = random.Random()
    rng.setstate(state)
    return draw_words(rng, n)


def write_back(rng, state, n_words: int) -> None:
    """Set ``rng`` to ``state`` advanced by exactly ``n_words`` outputs."""
    rng.setstate(state)
    if n_words > 0:
        rng.getrandbits(32 * n_words)


class OwnedStream:
    """The rest of one ``random.Random``'s ``random()`` stream, for one run.

    :meth:`randoms` returns the next ``n`` values ``rng.random()`` would
    return, drawing their words from ``rng`` itself, so the owner must be
    the stream's only consumer while it draws ahead (see the module
    docstring).
    """

    __slots__ = ("_rng",)

    def __init__(self, rng) -> None:
        self._rng = rng

    def randoms(self, n: int) -> np.ndarray:
        """The next ``n`` values of ``rng.random()`` as a float64 array."""
        # Each value is genrand_res53 over two consecutive words, computed
        # on exact integers below 2**53, so it equals the scalar call.
        w = draw_words(self._rng, 2 * n).astype(np.uint64)
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
    rng = stream._rng
    state = rng.getstate()
    attempts = float(1 << k) / float(ws)  # expected randrange words/draw
    if frac and not pure_random:
        per = 2.0 + frac * attempts
    elif frac:
        per = 2.0 + attempts
    else:
        per = attempts
    need = int(n * per * 1.10) + 80
    words = draw_words(rng, need)
    while True:
        plan = _parse_draws(words, n, frac, ws, k, pure_random)
        if plan is not None:
            break
        # Too short: draw on, so the new words continue the sequence.
        more = (need >> 1) + 80
        words = np.concatenate((words, draw_words(rng, more)))
        need += more
    used, is_rand, rand_off = plan
    write_back(rng, state, used)
    return is_rand, rand_off

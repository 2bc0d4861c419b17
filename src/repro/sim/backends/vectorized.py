"""Vectorized batch-replay backend: record a burst once, evaluate it as arrays.

Where the ``fastpath`` backend fuses the reference loop but still walks one
access at a time, this backend splits each steady stretch of execution (a
*burst*) into two passes:

- **Pass A (scalar, lean).**  Walk the schedule exactly as the reference
  loop would — but with every per-block cost deferred and every branch
  outcome *pre-materialized*.  Biased/Random draws (and GlobalCorrelated
  noise) come from an :class:`.rngkit.OwnedStream` over the model's own
  ``random.Random``, which draws each chunk's Mersenne-Twister words from
  that generator in one ``getrandbits`` call.  Loop/Pattern outcomes are
  closed-form over an index range, and GlobalCorrelated branches reduce
  to a popcount over the maintained history register — so the walk
  takes each branchy block's ``(taken, successor)`` pair from an iterator
  over chunked arrays, steers the BT continuation (one index+compare
  against the current translation's block-pc tuple, with a per-run memo
  of region-cache entries) and the HTB window counter (hoisted dict ops),
  and resolves the branch through the active predictor right there: the
  tournament and small-local updates and the BTB touch of
  ``BranchUnit.predict_and_update``, inlined, with the GHR and the
  lookup, mispredict and BTB tallies in locals that each flush writes
  back.  The predictor's mode is constant within a burst (only a non-idle
  boundary changes it, and that flushes first); under ``force_small`` the
  walk calls the unit's own method.  The walk records the positions of
  mispredicted and redirected blocks.  No cycle math and no memory
  accesses: those are deferred to pass B.
- **Pass B (numpy).**  Gather per-block attribute columns
  (:meth:`CodeRegion.attr_arrays`) for the recorded indices and evaluate
  the whole burst at once: issue cycles as one elementwise product, the
  address stream in closed form (deterministic cursors, and — for
  ``random_frac > 0`` streams — a bulk RNG plan from
  :func:`rngkit.plan_stream_draws`), the cache walk via the **visit
  kernel** below, and the recorded branch penalties after each block's
  memory stalls.  Monotonic counters land in one
  :meth:`PerfCounters.add_batch` / :meth:`SetAssocCache.charge_bulk`
  call per burst.

Visit kernel
    A *visit* is a maximal run of consecutive accesses to the same cache
    line (deterministic strided streams revisit each line
    ``line_size/stride`` times in a row).  Only the visit *head* has an
    uncertain hit/miss outcome; every tail access touches the line the
    head just made MRU, so it is an unconditional L1 hit whose only
    effect is a dirty-bit OR.  numpy finds the visit boundaries and
    per-visit write-ORs; a scalar loop then performs one *real* dict
    probe per visit, and on a miss walks an inlined copy of
    :meth:`CacheHierarchy.access_below_l1` (prefetcher scan, MLC/LLC
    probes) against the live structures.  Because the probes are real,
    the kernel is exact by construction — L1/MLC/LLC LRU order,
    writebacks, and prefetcher state evolve exactly as in the reference
    loop, at ~``line_size/stride`` fewer Python iterations.  Every level
    shares the L1's line size, so the head's line index probes them all;
    a set never holds more than its ways, so a fill evicts at most one
    line; and L1 hits are the flush's accesses minus its misses.

Segment dispatch
    Before the per-visit scalar walk, each ascending run of lines is
    classified against a per-phase high-water mark (phases live in
    disjoint 1 GB slots; line-disjointness is verified once per run).  A
    **fresh** segment — every line above its stream's mark — misses every
    level by construction, and the prefetcher's sequential hits collapse
    to a closed form once its window is verifiably engaged.  A **warm**
    segment — a loop-pattern revisit whose phases' combined MLC footprint
    fits the minimum gated MLC ways observed so far — is an
    L1-miss/MLC-hit run: :func:`_bulk_rehit` (batched MRU-touch with
    dirty-OR) on the MLC, with zero LLC events.  Runs straddling the mark
    split at it.  Everything else takes the generic per-head loop, which
    builds its per-visit lists for its own heads only, so the dispatch is
    exact by construction.

    The guaranteed-miss fills of both forms are *queued*, one
    :class:`_FreshFills` queue per level, instead of rewriting every set
    they reach on every flush: a set's contents, LRU order and dirty bits
    after any run of such fills are a closed form of the fill sequence
    (the last ``ways`` lines per set, with their write-OR), and so is the
    writeback count (a cumsum of dirty bits over the displaced fills,
    plus the pre-existing dirty entries pushed out).  :func:`_bulk_insert`
    applies a queue when something reads the level: a generic probe, a
    warm segment (MLC only), a non-idle window boundary (before
    ``on_entry``, whose policy may re-gate MLC ways, and the scalar
    trigger block) and the end of the run.  Hit and miss counts still
    settle every flush.  The first head of a flush that continues the
    previous flush's last line (still L1-MRU) is a hit on the last queued
    L1 fill, a dirty-bit OR on the queue; if another fill was queued after
    it, the head takes the generic walk.

Bit-exact cycle accounting
    Per-block cycles are assembled in reference order — base issue
    cycles, then memory stalls in access order, then the branch penalty —
    and folded into the running total with ``np.cumsum``, which performs
    the same left-to-right float64 additions as the reference loop's
    ``cycles += bc`` (verified bit-identical; numpy's pairwise summation
    applies to ``np.sum``, not ``cumsum``).  Translation charges are
    spliced in *before* their block's cycles, exactly where the reference
    loop adds them.

Burst boundaries and cross-window extension
    A burst ends when (a) the phase segment ends, (b) the instruction
    budget is reached, (c) a translation entry triggers a PowerChop
    window end whose policy step is **not provably idle**, or (d) the
    record reaches ``_BURST_BLOCKS`` (2048) blocks.  Pass B composes
    exactly across any cut (a non-idle window end already cuts at an
    arbitrary block), so (d) changes no result; it bounds pass B's
    per-burst arrays and lists by ``_BURST_BLOCKS`` instead of by the
    longest steady stretch, so a run's memory stops growing with its
    budget.  Pass B's time follows its batch (the fill queues above, and
    an RNG plan whose transients are a small constant per access), so
    the cap costs little time.  A window end
    is idle — and the burst replays straight through it — when nothing
    the boundary does is observable: either the window is still inside
    the warmup epoch (the controller only flushes the HTB and keeps
    observing), or no measurement is pending (``_measuring is None``,
    ``force_small`` clear), the PVT holds a policy for the window's
    signature, and that policy matches the current unit states — then
    ``_apply_policy`` performs no transition and returns 0.0, and the
    skipped ``_window_stats`` snapshot is dead (its value is only
    consumed by a pending measurement, which idleness rules out; a
    measurement can only be armed at a non-idle boundary, which resets
    the snapshots before they are next read).  Idle boundaries replicate
    the observable effects inline — ``windows_seen``, the real
    ``pvt.lookup`` (LRU + stats), the HTB flush, the listener notes — and
    the burst continues.  Non-idle boundaries flush the burst first — so
    window stats read fully-updated counters and an exact cycle count —
    then run the boundary scalar (policy may re-gate units), and the
    triggering block executes scalar under the *post-policy*
    configuration.  ``collect_phase_vectors`` disables idle extension
    (every window logs a translation vector).

TIMEOUT in closed form
    :class:`~repro.core.timeout.TimeoutVPUController` is a two-state
    machine over block start cycles: a vector block wakes a gated VPU, and
    the first non-vector block more than ``timeout_cycles`` after the last
    vector block's start gates it.  The controller wakes the VPU before a
    vector block runs, so no vector op is ever emulated and a block's
    cycles do not depend on the VPU state.  Pass B therefore evaluates the
    flush as usual, accounting every vector op as native, and the cycle
    fold (:func:`_fold_cycles`) replays the controller as a scan over the
    flush's block start cycles.  Each transition adds its stall at its
    block, calls ``core.apply_vpu_state`` and the accountant's
    ``on_switch`` in block order, and the fold resumes from that block in
    the reference order: stall, translation charge, block cycles.  The
    controller's own state carries across flushes.

Fallbacks
    Probes, and a hierarchy whose levels differ in line size (no design
    builds one), delegate to the ``reference`` backend; full tracing
    delegates to ``fastpath``.  There is no per-access fallback anymore:
    ``random_frac > 0`` and pure-random streams batch through the RNG plan.
"""

from __future__ import annotations

import zlib
from itertools import chain, repeat
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.bt.runtime import ExecMode
from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
    RandomBranch,
)
from repro.sim.backends.rngkit import OwnedStream, plan_stream_draws

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HybridSimulator

#: Sentinel for the allocation-free L1 dict probe (mirrors cache.py).
_MISSING = object()

_INTERPRETED = ExecMode.INTERPRETED

#: Walk-table resolver kinds (see :func:`_walk_table`).
_K_NONE = 0  # no branch
_K_BUFFERED = 1  # Biased/Random/Loop/Pattern: outcomes pre-materialized
_K_GLOBAL = 2  # GlobalCorrelatedBranch: popcount over the history register
_K_GENERIC = 3  # anything else: model.next_outcome(history)

#: Outcome chunk sizing: start small (cold blocks waste few draws), double
#: up to a cap so hot blocks amortize the numpy call.
_CHUNK0 = 64
_CHUNK_MAX = 32768

#: Burst-record cap: pass A flushes once ``rec`` holds this many blocks, so
#: pass B's per-burst arrays stay this size however long a steady stretch
#: runs.  Pass B composes exactly across any cut, so the value trades only
#: peak memory against the number of flushes, never results.  On a 2-vCPU
#: host, 1M-instruction milc/lbm MINIMAL runs took 0.96-0.98x as long at
#: 2048 as at 8192, 1.00-1.03x at 1024 and 1.08-1.11x at 512 (7
#: interleaved rounds, medians).
_BURST_BLOCKS = 2048

#: Lines a :class:`_FreshFills` queue holds before it settles at the next
#: flush: bounds the queue's memory (about 9 bytes a line, plus the
#: settle's transients) on long streaming runs.
_FILL_LIMIT = 32768


# --------------------------------------------------------------------------
# Cycle fold, with the TIMEOUT controller as a scan over a flush's blocks
# --------------------------------------------------------------------------


def _fold_cycles(cycles, bc_arr, trans_list, nv, ctl) -> float:
    """Fold one flush's block cycles into the running total ``cycles``.

    The reference loop adds, block by block, the TIMEOUT controller's stall
    (if any), the block's translation charge (if any) and the block's
    cycles.  The fold is one ``np.cumsum`` over those ``(stall, charge,
    cycles)`` triples, in that order; an empty slot adds +0.0, which leaves
    every partial sum unchanged.  ``bc_arr`` holds the per-block cycles,
    ``trans_list`` the ``(block, charge)`` translation charges and ``nv``
    each block's vector-op count.

    ``ctl`` is the run's :class:`TimeoutVPUController`, or None.  Under it
    a block's cycles do not depend on the VPU state, because the controller
    wakes the VPU before any vector block runs, so only the transitions
    need the running total:

    - VPU on: the first non-vector block that starts more than
      ``timeout_cycles`` after the last vector block's start gates it off;
    - VPU off: the next vector block wakes it.

    Each transition makes the controller's side effects in block order,
    puts its stall in its block's first slot and refolds the rest of the
    flush from that block.  The controller's own state (``vpu_on``,
    ``_last_vector_cycle``) carries across flushes, so any burst cut gives
    the same transitions.
    """
    n = len(bc_arr)
    slots = np.zeros(3 * n, dtype=np.float64)
    slots[2::3] = bc_arr
    for p, v in trans_list:
        slots[3 * p + 1] = v
    if ctl is None:
        slots[0] += cycles
        return float(np.cumsum(slots)[-1])
    core = ctl.core
    design = ctl.design
    accountant = ctl.accountant
    period = ctl.timeout_cycles
    stall = design.vpu_switch_cycles + design.vpu_save_restore_cycles
    isv = nv > 0
    on = core.states.vpu_on
    last = ctl._last_vector_cycle
    q = 0
    while True:
        seg = slots[3 * q :].copy()
        seg[0] += cycles
        cs = np.cumsum(seg)
        # now[i]: the running total when block q+i starts (before its stall).
        now = np.empty(n - q, dtype=np.float64)
        now[0] = cycles
        now[1:] = cs[2:-1:3]
        vec = isv[q:]
        if on:
            lv = np.where(vec, now, -np.inf)
            np.maximum.accumulate(lv, out=lv)
            np.maximum(lv, last, out=lv)
            hit = np.flatnonzero(~vec & (now - lv > period))
        else:
            hit = np.flatnonzero(vec)
        if not len(hit):
            ctl._last_vector_cycle = float(lv[-1]) if on else last
            return float(cs[-1])
        k = int(hit[0])
        cycles = float(now[k])
        last = float(lv[k]) if on else cycles
        on = not on
        core.apply_vpu_state(on)
        if on:
            ctl.gate_ons += 1
        else:
            ctl.gate_offs += 1
        if accountant is not None:
            accountant.on_switch("vpu", on, cycles)
        q += k
        slots[3 * q] = stall


# --------------------------------------------------------------------------
# Walk table: per-region pass-A columns with pre-materialized outcomes
# --------------------------------------------------------------------------


def _bulk_insert(sets_map, mask, ways, ln_np, dt_np) -> int:
    """Apply a guaranteed-miss insert sequence to one cache level.

    Every line in ``ln_np`` must be absent from its set when its insert
    comes — callers prove this with the segment classifier (fresh lines
    were never touched; warm-loop revisits are separated by at least
    ``ways`` same-set inserts, so the prior copy is already evicted).
    Under that precondition each per-set dict behaves as a pure FIFO
    queue — append the new line, evict from the front while over
    capacity — so the batch effect is: keep the last ``min(ways, c)`` of
    the set's new events, evict everything older.  Only the kept events
    reach Python; the dropped ones are counted by a cumsum of their
    dirty bits.  Returns the number of dirty writebacks; the per-set
    dicts end key-for-key identical to the scalar insert/evict loop,
    insertion order included.
    """
    n = len(ln_np)
    order = np.argsort(ln_np & mask, kind="stable")
    ls = ln_np[order]
    ds = dt_np[order]
    del order
    sid_s = ls & mask
    gstart = np.flatnonzero(sid_s[1:] != sid_s[:-1]) + 1
    sids = sid_s[np.append(0, gstart)].tolist()
    del sid_s
    gend = np.append(gstart, n)
    gstart = np.append(0, gstart)
    # Per set, events before ``ks`` fall out of the set within the batch.
    ks = np.maximum(gstart, gend - ways)
    cs = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(ds, dtype=np.int32, out=cs[1:])
    wb = int((cs[ks] - cs[gstart]).sum())
    del cs
    kept = np.arange(n) >= np.repeat(ks, gend - gstart)
    ls_l = ls[kept].tolist()
    ds_l = ds[kept].tolist()
    full = (gend - gstart >= ways).tolist()
    j = 0
    for sid, c, f in zip(sids, (gend - ks).tolist(), full):
        s = sets_map[sid]
        if f:
            # Every pre-existing entry falls out.
            wb += sum(s.values())
            s.clear()
        else:
            over = len(s) + c - ways
            while over > 0:
                over -= 1
                if s.pop(next(iter(s))):
                    wb += 1
        for k in range(j, j + c):
            s[ls_l[k]] = ds_l[k]
        j += c
    return wb


class _FreshFills:
    """One cache level's queued guaranteed-miss fills, applied on demand.

    Fresh segments (and the L1 side of warm ones) only ever append to a
    set and evict from its front, so a set's contents, LRU order and
    dirty bits after any run of such fills are a closed form of the fill
    sequence (:func:`_bulk_insert`).  Pass B therefore queues the fills
    here in order instead of rewriting every set they reach on every
    flush, and the run loop calls :meth:`settle` before anything reads
    the level's sets: a generic or warm-segment probe, a non-idle window
    boundary (whose policy may re-gate MLC ways) and the end of the run.
    Writebacks are counted when the fills settle; nothing reads the
    counter before that.  The queue also settles once it holds
    ``_FILL_LIMIT`` lines, which bounds its memory on long runs.
    """

    __slots__ = ("cache", "lines", "dirty", "n")

    def __init__(self, cache) -> None:
        self.cache = cache
        self.lines: list = []
        self.dirty: list = []
        self.n = 0

    def add(self, lines, dirty) -> None:
        """Queue fills of ``lines``, each absent from its set when it comes.

        The level's active ways cannot change while fills are queued: only
        a window boundary's policy re-gates them, and it settles first.
        """
        self.lines.append(lines)
        self.dirty.append(dirty)
        self.n += len(lines)

    def touch_last(self, line: int, write: bool) -> bool:
        """Hit ``line`` in place if it is the last queued fill.

        The last fill is its set's MRU line, so a hit on it leaves the LRU
        order alone and only ORs ``write`` into its dirty bit.
        """
        if not self.n or self.lines[-1][-1] != line:
            return False
        if write:
            self.dirty[-1][-1] = True
        return True

    def settle(self) -> None:
        """Apply every queued fill to the set dicts."""
        if not self.n:
            return
        lines, dirty = self.lines, self.dirty
        self.lines, self.dirty, self.n = [], [], 0
        cache = self.cache
        cache.writebacks += _bulk_insert(
            cache._sets,
            cache._set_mask,
            cache.active_ways,
            lines[0] if len(lines) == 1 else np.concatenate(lines),
            dirty[0] if len(dirty) == 1 else np.concatenate(dirty),
        )


def _bulk_rehit(sets_map, mask, ln_np, dt_np) -> None:
    """Apply a guaranteed-hit event sequence to one cache level.

    The scalar loop pops each line and re-inserts it with
    ``old_dirty or write``; after the whole sequence every distinct line
    sits behind the set's untouched entries, ordered by its *last*
    touch, with its dirty bit OR-ed over all its events.  Replaying one
    pop/re-insert per distinct line in last-touch order reproduces that
    final dict byte-for-byte.
    """
    rev = ln_np[::-1]
    uq, ridx = np.unique(rev, return_index=True)
    last = len(ln_np) - 1 - ridx
    order = np.argsort(last, kind="stable")
    so = np.argsort(ln_np, kind="stable")
    sdirty = dt_np[so]
    sl = ln_np[so]
    gstart = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(np.diff(sl)) + 1)
    )
    anyw = np.logical_or.reduceat(sdirty, gstart)
    for ln, w in zip(uq[order].tolist(), anyw[order].tolist()):
        st = sets_map[ln & mask]
        st[ln] = st.pop(ln) or w


def _chunked(draw):
    """Chain the chunks ``draw(c)`` returns, each drawn when the walk needs it.

    Chunk sizes double from ``_CHUNK0`` up to ``_CHUNK_MAX``, so cold blocks
    waste few draws and hot blocks amortize the numpy call.  A chunk is
    drawn only when the previous one is exhausted and another value is
    asked for.
    """

    def chunks():
        c = _CHUNK0
        while True:
            yield draw(c)
            if c < _CHUNK_MAX:
                c *= 2

    return chain.from_iterable(chunks())


def _biased_outcomes(model, tsucc, fsucc):
    """``(taken, successor)`` pairs of a Biased/Random branch, in order."""
    randoms = OwnedStream(model._rng).randoms

    def draw(c):
        t = randoms(c) < model.p_taken
        return zip(t.view(np.int8).tolist(), np.where(t, tsucc, fsucc).tolist())

    return _chunked(draw)


def _loop_outcomes(model, tsucc, fsucc):
    """``(taken, successor)`` pairs of a Loop branch, in order."""

    def draw(c):
        period = model.period
        c0 = model._count
        # next_outcome: count wraps to 0 (not-taken) when it reaches the
        # period, so draw e from state c0 is taken iff (c0+1+e) % period.
        t = (c0 + 1 + np.arange(c, dtype=np.int64)) % period != 0
        model._count = (c0 + c) % period
        return zip(t.view(np.int8).tolist(), np.where(t, tsucc, fsucc).tolist())

    return _chunked(draw)


def _pattern_outcomes(model, tsucc, fsucc):
    """``(taken, successor)`` pairs of a Pattern branch, in order."""
    pat = np.array(model.pattern, dtype=bool)
    length = len(pat)

    def draw(c):
        p0 = model._pos
        t = pat[(p0 + np.arange(c, dtype=np.int64)) % length]
        model._pos = (p0 + c) % length
        return zip(t.view(np.int8).tolist(), np.where(t, tsucc, fsucc).tolist())

    return _chunked(draw)


def _noise_flips(model):
    """A GlobalCorrelated branch's noise flips (0/1 per outcome), in order."""
    randoms = OwnedStream(model._rng).randoms

    def draw(c):
        return (randoms(c) < model.noise).view(np.int8).tolist()

    return _chunked(draw)


def _walk_table(region):
    """Per-region pass-A step table (memoized on the region object).

    Returns ``(branches, steps)``: the branch-object column (pass B bumps
    ``branch.executions``) and one tuple ``(kind, pc, n_instr, fall_succ,
    pay, branch_pc)`` per block, so the walk unpacks a block's whole
    dispatch state in a single indexed load.  ``pay`` carries the
    kind-specific payload: buffered kinds get the ``__next__`` of their
    ``(taken, successor)`` iterator, global-correlated kinds ``(mask,
    invert, noise_next, taken_succ, fall_succ)``, generic kinds ``(model,
    taken_succ, fall_succ)``.

    Buffered kinds replicate each model's ``next_outcome`` stream
    byte-for-byte — including RNG draw order — which the equivalence
    suite verifies; over-materialized draws only advance private model
    state (RNG word position, loop counter, pattern cursor) that nothing
    else observes, and the iterators are valid continuations across
    bursts, segments, and windows.
    """
    try:
        return region._pass_a_columns
    except AttributeError:
        pass
    branches: list = []
    steps: list = []
    for block in region.blocks:
        pc = block.pc
        ts = block.taken_succ
        fs = block.fall_succ
        ni = block.n_instr
        branch = block.branch
        branches.append(branch)
        if branch is None:
            steps.append((_K_NONE, pc, ni, fs, None, 0))
            continue
        bpc = branch.pc
        model = branch.model
        tm = type(model)
        # Exact-type checks: a subclass could override next_outcome, so
        # only the leaf classes we replicate verbatim are batched.
        if tm is BiasedBranch or tm is RandomBranch:
            outcomes = _biased_outcomes(model, ts, fs)
        elif tm is LoopBranch:
            outcomes = _loop_outcomes(model, ts, fs)
        elif tm is PatternBranch:
            outcomes = _pattern_outcomes(model, ts, fs)
        elif tm is GlobalCorrelatedBranch:
            mask = 0
            for off in model.offsets:
                mask |= 1 << off
            noise = _noise_flips(model).__next__ if model.noise else None
            pay = (mask, int(model.invert), noise, ts, fs)
            steps.append((_K_GLOBAL, pc, ni, fs, pay, bpc))
            continue
        else:
            steps.append((_K_GENERIC, pc, ni, fs, (model, ts, fs), bpc))
            continue
        steps.append((_K_BUFFERED, pc, ni, fs, outcomes.__next__, bpc))
    table = (branches, steps)
    region._pass_a_columns = table
    return table


def _uniform_lines(hierarchy) -> bool:
    """Whether every cache level shares the L1's line size.

    Every :class:`DesignPoint` builds its hierarchy from one ``line_size``;
    the burst loop relies on it to probe each level with the L1's line
    index.
    """
    shift = hierarchy.l1._line_shift
    return all(
        c._line_shift == shift for c in (hierarchy.mlc, hierarchy.llc) if c is not None
    )


class VectorizedBackend:
    """Backend wrapper around :func:`run_vectorized` (see module docstring)."""

    name = "vectorized"
    needs_replay_state = True

    def run(
        self,
        simulator: "HybridSimulator",
        max_instructions: int,
        probes: Sequence = (),
    ) -> float:
        if probes or not _uniform_lines(simulator.core.hierarchy):
            # Probe callbacks need the per-block BlockExec view, and mixed
            # line sizes need per-level line indices; the reference loop
            # provides both.
            from repro.sim.backends import get_backend

            return get_backend("reference").run(simulator, max_instructions, probes)
        if simulator.tracer.active:
            # Full event tracing wants per-block timestamps, which the
            # fused scalar loop keeps; only traced runs load it.
            from repro.sim.backends.fastpath import run_fast

            return run_fast(simulator, max_instructions)
        return run_vectorized(simulator, max_instructions)


def run_vectorized(simulator: "HybridSimulator", max_instructions: int) -> float:
    """Run the two-pass burst loop; returns total cycles.

    Drop-in replacement for the probe-free body of
    :meth:`HybridSimulator.run` — on return every component counter, the
    BT walk state, and the workload's address-stream cursors hold exactly
    the values the reference loop would have left.  Every cache level must
    share the L1's line size (:func:`_uniform_lines`), so one line index
    probes them all.
    """
    workload = simulator.workload
    core = simulator.core
    bt = simulator.bt
    controller = simulator.controller
    timeout_ctl = simulator.timeout_controller
    counters = core.counters
    design = core.design
    hier = core.hierarchy
    l1 = hier.l1
    l1_sets = l1._sets
    line_shift = l1._line_shift
    set_mask = l1._set_mask
    l1_ways = l1.active_ways  # the L1 is never way-gated at runtime
    level_counts = hier.level_counts
    below = hier.access_below_l1
    prefetcher = hier.prefetcher
    mlc = hier.mlc
    llc = hier.llc
    mlc_latency = hier.mlc_latency
    llc_latency = hier.llc_latency
    memory_latency = hier.memory_latency
    prefetched_latency = hier.prefetched_latency
    stall_factor = core._stall_factor
    # Stall contributions are ``stall * stall_factor`` with stall drawn from
    # four constants; precomputing the products is float-identical.
    mlc_cost = mlc_latency * stall_factor
    llc_cost = llc_latency * stall_factor
    memory_cost = memory_latency * stall_factor
    prefetched_cost = prefetched_latency * stall_factor
    mlc_sets = mlc._sets
    mlc_mask = mlc._set_mask
    if llc is not None:
        llc_sets = llc._sets
        llc_mask = llc._set_mask
    if prefetcher is not None:
        pf_streams = prefetcher._streams
        pf_stamps = prefetcher._stamps
        pf_window = prefetcher.window
    vpu = core.vpu
    vpu_emul_extra = vpu.emulation_factor - 1
    bpu = core.bpu
    bpu_predict = core._bpu_predict_and_update
    # Predictor tables for the walk's inlined updates.  Gating flushes them
    # in place (lists survive), so the references hold for the whole run.
    bp_local = bpu.large.local
    bp_lhist = bp_local._histories
    bp_lctrs = bp_local._counters
    bp_lhist_mask = bp_local._hist_mask
    bp_lpat_mask = bp_local._pat_mask
    bp_lbits_mask = bp_local._history_bits_mask
    bp_gshare = bpu.large.global_pred
    bp_gctrs = bp_gshare._counters
    bp_gmask = bp_gshare._mask
    bp_ghr_mask = bp_gshare._ghr_mask
    bp_chooser = bpu.large._chooser
    bp_chooser_mask = bpu.large._chooser_mask
    bp_small = bpu.small
    bp_shist = bp_small._histories
    bp_sctrs = bp_small._counters
    bp_shist_mask = bp_small._hist_mask
    bp_spat_mask = bp_small._pat_mask
    bp_sbits_mask = bp_small._history_bits_mask
    issue_cpi = core._issue_cpi
    interp_cpi = design.interpreter_cpi
    mispredict_penalty = design.mispredict_penalty
    btb_redirect_penalty = design.btb_redirect_penalty

    fstate = simulator.fastpath_state

    history = workload.history
    history_mask = history._mask
    hbits = history.bits
    phases = workload.phases
    phase_order = workload._phase_order
    schedule = workload.schedule
    wseed = workload.seed

    htb = controller.htb if controller is not None else None
    on_entry = controller.on_translation_entry if controller is not None else None
    if controller is not None:
        window_size = htb.window_size
        hcounts = htb._instr_counts
        hexec = htb._exec_counts
        htb_cap = htb.n_entries
        htb_signature = htb.signature
        wexec = htb.window_executions
        pvt = controller.pvt
        pvt_peek = pvt.peek
        config = controller.config
        sig_len = config.signature_length
        warmup_windows = config.warmup_windows
        # Phase-vector collection logs every window; no boundary is idle.
        idle_ok = not config.collect_phase_vectors
        states = core.states
    else:
        wexec = 0
    bt_on_block = bt.on_block
    region_cache = bt.region_cache
    rc_get = region_cache._by_head.get
    rc_stats = region_cache.stats

    # ---- Closed-form memory-kernel hoists (see _flush's segment
    # dispatch).  Each phase's address stream lives in its own slot, so
    # when the slots are line-disjoint a cache line belongs to exactly
    # one stream and a per-stream high-water mark classifies every
    # ascending run of lines as fresh (never touched -> every level
    # misses) or warm (loop revisit).  The warm form additionally needs
    # the loop phases' combined MLC footprint to fit the gated MLC.
    n_l1_sets = len(l1_sets)
    n_mlc_sets = len(mlc_sets)
    line_sz = 1 << line_shift
    spans = []
    mlc_occ: Optional[int] = 0
    for pname, pidx in phase_order.items():
        st_p = phases[pname].address_stream(
            pidx, wseed ^ zlib.crc32(pname.encode()) & 0xFFFF
        )
        span_p = (
            st_p._stream_limit
            if st_p.behavior.pattern == "stream"
            else st_p._ws_bytes
        )
        spans.append((st_p.base, span_p))
        if st_p.behavior.pattern == "stream":
            mlc_occ = None  # unbounded footprint: the warm form never applies
        elif mlc_occ is not None:
            # Max lines one MLC set can receive from a span_p-byte range:
            # a run of R consecutive lines covers each set <= ceil(R/sets)
            # times (line straddles add at most one).
            lines_p = ((span_p + line_sz - 1) >> line_shift) + 1
            mlc_occ += -(-lines_p // n_mlc_sets)
    spans.sort()
    bases_disjoint = all(b % line_sz == 0 for b, _ in spans) and all(
        spans[i][0] + spans[i][1] <= spans[i + 1][0]
        for i in range(len(spans) - 1)
    )
    mlc_ways_min = mlc.active_ways
    # Per-phase [high_water_line, last_touched_line] state.
    hw_map: dict = {}
    # Queued guaranteed-miss fills, one queue per level (see _FreshFills).
    l1_fills = _FreshFills(l1)
    mlc_fills = _FreshFills(mlc)
    fills = [l1_fills, mlc_fills]
    if llc is not None:
        llc_fills = _FreshFills(llc)
        fills.append(llc_fills)

    def _settle() -> None:
        for f in fills:
            f.settle()

    cycles = 0.0
    produced = 0
    burst_blocks = _BURST_BLOCKS

    # Hoisted BT walk state (synced back around every bt.on_block call).
    # ``cur_pcs`` is the current translation's block-pc tuple plus an end
    # marker of -1, which no block pc equals, and ``(-1,)`` whenever
    # ``cur_trans`` is None: the steering check is a bare index+compare
    # that never runs off the tuple (a raised IndexError at every trace
    # end cost more than the check itself).
    cur_trans = bt._current
    cur_pcs: tuple = (-1,)
    cur_pos = 0
    if cur_trans is not None:  # pragma: no cover - fresh simulators start cold
        cur_pcs = cur_trans.block_pcs + (-1,)
        cur_pos = bt._pos

    # Per-run steering memo: head pc -> (translation, block_pcs + (-1,),
    # tid, n_instr).  RegionCache never evicts and only inserts previously
    # missing pcs, so a memo hit is always current; it replaces a dict
    # probe plus three attribute loads (``tid`` is a computed property)
    # on every region entry.
    rc_memo: dict = {}
    rc_memo_get = rc_memo.get

    # The walk resolves every recorded branch through the active predictor
    # (the reference ``BranchUnit.predict_and_update``, inlined).  Its mode
    # is constant within a burst, because only a non-idle boundary's policy
    # or measurement changes it and that flushes first: 0 = the large side
    # predicts and the small side trains, 1 = large side gated (the small
    # side alone), 2 = ``force_small`` (through the unit's own method).
    # The GHR and the lookup, mispredict and BTB tallies live in locals;
    # ``_flush`` writes them back and the walk re-reads them after every
    # non-idle boundary.  ``misp_pos``/``redir_pos`` hold the positions in
    # ``rec`` of mispredicted and BTB-redirected blocks, whose penalties
    # pass B adds after the block's memory stalls (reference order).
    def _bpu_view():
        if not bpu.large_on:
            return 1, bpu.small_btb
        return (2 if bpu.force_small else 0), bpu.large_btb

    bp_mode, bp_btb = _bpu_view()
    bp_btb_entries = bp_btb._entries
    bp_btb_cap = bp_btb.n_entries
    bp_ghr = bp_gshare.ghr
    bp_btb_hits = bp_btb_misses = 0
    misp_pos: list = []
    misp_append = misp_pos.append
    redir_pos: list = []
    redir_append = redir_pos.append

    # Pass timing (pass A = total - pass B - scalar, settled in `finally`).
    pb_time = 0.0
    sc_time = 0.0
    t_run0 = perf_counter()

    try:
        while True:
            for phase_name, n_blocks in schedule:
                phase = phases[phase_name]
                # Seed expression mirrors SyntheticWorkload.trace exactly
                # (& binds tighter than ^).
                stream = phase.address_stream(
                    phase_order[phase_name],
                    wseed ^ zlib.crc32(phase_name.encode()) & 0xFFFF,
                )
                behavior = stream.behavior
                sbase = stream.base
                cursor = stream._cursor
                stride = behavior.stride
                random_frac = behavior.random_frac
                pattern = behavior.pattern
                ws_bytes = stream._ws_bytes
                limit = ws_bytes if pattern == "loop" else stream._stream_limit
                use_rng = random_frac > 0.0
                is_random = pattern == "random"
                plan_rng = use_rng or is_random
                # Bound draws replicating AddressStream.next's exact call
                # order for the residual scalar path (see fastpath.py).
                rng_random = stream._random  # lint: rng-mirrored
                rng_getrandbits = stream._rng.getrandbits  # lint: rng-mirrored
                ws_k = ws_bytes.bit_length()

                fstate.phase_resets += 1

                # Segment-dispatch eligibility: deterministic stream whose
                # line index advances monotonically between wraps, with this
                # phase's slot line-disjoint from every other phase's.
                seg_ok = (
                    not plan_rng
                    and bases_disjoint
                    and stride > 0
                    and sbase % line_sz == 0
                )
                warm_base = False
                if seg_ok and pattern == "loop" and mlc_occ is not None:
                    # Warm form: each wrap touches every line of the range
                    # in order (stride divides the line size, the range is
                    # line-aligned), and one wrap pushes >= ways+1 lines
                    # through each L1 set, so a revisited line is always
                    # evicted -- every head misses the L1, and (given the
                    # footprint fits the MLC) hits the MLC.
                    range_lines = limit >> line_shift
                    warm_base = (
                        stride <= line_sz
                        and line_sz % stride == 0
                        and limit % line_sz == 0
                        and (range_lines // n_l1_sets) >= l1_ways + 1
                    )
                space_hw = hw_map.setdefault(phase_name, [-1, -1])

                region = phase.region
                region_blocks = region.blocks
                region_len = len(region_blocks)
                attr_ni, attr_nm, attr_nl, attr_nv = region.attr_arrays()
                col_branch, steps = _walk_table(region)

                # Burst record.  ``rec`` holds block indices; side lists
                # carry the rare irregularities (interpreted blocks,
                # translation charges) by position in ``rec``.
                rec: list = []
                rec_append = rec.append
                interp_pos: list = []
                trans_list: list = []
                b_translated = b_entries = b_overflow = b_rc = 0
                c0 = cursor
                # Constant within a burst.  Under TIMEOUT the controller
                # wakes the VPU before every vector block, so vector ops
                # always run native.
                vpu_gated = vpu.gated_on or timeout_ctl is not None

                def _flush(settle: bool = False) -> None:
                    """Pass B: evaluate and apply the recorded burst.

                    ``settle`` also applies every queued cache fill, for a
                    reader outside pass B.
                    """
                    nonlocal cycles, cursor, c0, pb_time, mlc_ways_min
                    nonlocal b_translated, b_entries, b_overflow, b_rc
                    nonlocal bp_btb_hits, bp_btb_misses
                    t0 = perf_counter()
                    # Settle long queues now, while no burst array is live.
                    for f in fills:
                        if f.n >= _FILL_LIMIT:
                            f.settle()
                    n = len(rec)
                    n_instr_sum = micro_sum = nv_sum = 0
                    N = 0
                    m = 0
                    if n:
                        bidx = np.array(rec, dtype=np.int64)
                        # Batched branch.executions: one increment per
                        # dynamic execution of a branchy block.
                        counts = np.bincount(bidx, minlength=region_len)
                        for bi in np.flatnonzero(counts).tolist():
                            br = col_branch[bi]
                            if br is not None:
                                c = int(counts[bi])
                                br.executions += c
                                m += c
                        ni = attr_ni[bidx]
                        nm = attr_nm[bidx]
                        nv = attr_nv[bidx]
                        n_instr_sum = int(ni.sum())
                        nv_sum = int(nv.sum())
                        if nv_sum:
                            if timeout_ctl is None:
                                vpu.execute_bulk(nv_sum)
                            else:
                                vpu.native_ops += nv_sum
                            micro = ni if vpu_gated else ni + nv * vpu_emul_extra
                        else:
                            micro = ni
                        micro_sum = int(micro.sum())
                        # Base issue cycles (reference order: base first).
                        bc = (micro * issue_cpi).tolist()
                        for p in interp_pos:
                            b = region_blocks[rec[p]]
                            bnv = b.n_vec
                            if bnv and not vpu_gated:
                                bc[p] = (
                                    b.n_instr * interp_cpi
                                    + bnv * vpu_emul_extra * issue_cpi
                                )
                            else:
                                bc[p] = b.n_instr * interp_cpi

                        # Memory: visit kernel (stalls add in access order).
                        N = int(nm.sum())
                        if N:
                            starts = np.empty(n, dtype=np.int64)
                            starts[0] = 0
                            np.cumsum(nm[:-1], out=starts[1:])
                            owner = np.repeat(np.arange(n, dtype=np.int64), nm)
                            j = np.arange(N, dtype=np.int64)
                            if plan_rng:
                                # Mixed / pure-random stream: bulk RNG plan
                                # (advances stream._rng exactly as N scalar
                                # next() calls would).
                                is_rand, roff = plan_stream_draws(stream, N)
                                if is_random:
                                    addr = sbase + roff
                                else:
                                    det_cum = np.cumsum(~is_rand)
                                    curs = (c0 + stride * (det_cum - 1)) % limit
                                    addr = sbase + np.where(is_rand, roff, curs)
                                    cursor = int(
                                        (c0 + stride * int(det_cum[-1])) % limit
                                    )
                            else:
                                curs = (c0 + j * stride) % limit
                                addr = sbase + curs
                                cursor = int((c0 + N * stride) % limit)
                            lines = addr >> line_shift
                            li = j - starts[owner]
                            wr = li >= attr_nl[bidx][owner]
                            heads = np.concatenate(
                                (
                                    np.zeros(1, dtype=np.int64),
                                    np.flatnonzero(lines[1:] != lines[:-1]) + 1,
                                )
                            )
                            w_any = np.logical_or.reduceat(wr, heads)
                            hl_np = lines[heads]
                            hw_np = wr[heads]
                            hl = hl_np.tolist()
                            vo = owner[heads].tolist()
                            Hn = len(hl)
                            # L1 hits are the flush's accesses minus its
                            # misses; MLC and LLC accesses are all heads.
                            misses = wb = 0
                            mlc_hits = mlc_misses = mlc_wb = 0
                            llc_hits = llc_misses = llc_wb = 0
                            pf_hits = pf_misses = pf_covered = 0
                            mlc_ways = mlc.active_ways
                            if mlc_ways < mlc_ways_min:
                                mlc_ways_min = mlc_ways
                            if llc is not None:
                                llc_ways = llc.active_ways
                            if prefetcher is not None:
                                pf_clock = prefetcher._clock

                            # ---- Segment dispatch: split the heads into
                            # ascending runs and classify each against the
                            # stream's high-water mark.  cls 2 = fresh
                            # (never touched: every level misses by
                            # construction), cls 1 = warm loop revisit
                            # (L1 miss + MLC hit by construction), cls 0 =
                            # exact scalar replay.
                            runs: list = []

                            def _emit(c_, a_, b_):
                                if b_ > a_:
                                    if runs and runs[-1][0] == c_:
                                        runs[-1][2] = b_
                                    else:
                                        runs.append([c_, a_, b_])

                            if seg_ok:
                                if Hn > 1:
                                    brk = (
                                        np.flatnonzero(np.diff(hl_np) < 1) + 1
                                    ).tolist()
                                else:
                                    brk = []
                                bounds = [0, *brk, Hn]
                                hw_s = space_hw[0]
                                warm_ok = (
                                    warm_base and mlc_occ <= mlc_ways_min
                                )
                                warm_cls = 1 if warm_ok else 0
                                sa0 = 0
                                if hl[0] == space_hw[1]:
                                    # Continuation revisit of the line
                                    # straddling the flush boundary: it is
                                    # still L1-MRU, so it must not take a
                                    # bulk path.  While it is the last
                                    # queued L1 fill the hit is a dirty-bit
                                    # OR on the queue; otherwise it takes
                                    # the exact path (head hit).
                                    if not l1_fills.touch_last(
                                        hl[0], bool(w_any[0])
                                    ):
                                        _emit(0, 0, 1)
                                    sa0 = 1
                                for si in range(len(bounds) - 1):
                                    sa = bounds[si]
                                    if sa < sa0:
                                        sa = sa0
                                    sb = bounds[si + 1]
                                    if sa >= sb:
                                        continue
                                    hi = hl[sb - 1]
                                    if hl[sa] > hw_s:
                                        _emit(2, sa, sb)
                                        hw_s = hi
                                    elif hi <= hw_s:
                                        _emit(warm_cls, sa, sb)
                                    else:
                                        # Ascending run crossing the mark:
                                        # warm prefix, fresh suffix.
                                        mid = sa + int(
                                            np.searchsorted(
                                                hl_np[sa:sb],
                                                hw_s,
                                                side="right",
                                            )
                                        )
                                        _emit(warm_cls, sa, mid)
                                        _emit(2, mid, sb)
                                        hw_s = hi
                                space_hw[0] = hw_s
                                space_hw[1] = hl[-1]
                            else:
                                runs.append([0, 0, Hn])

                            for cls, ra, rb in runs:
                                Hr = rb - ra
                                if cls == 2:
                                    misses += Hr
                                    ln_r = hl_np[ra:rb]
                                    hw_r = hw_np[ra:rb]
                                    l1_fills.add(ln_r, w_any[ra:rb])
                                    mlc_misses += Hr
                                    mlc_fills.add(ln_r, hw_r)
                                    if llc is not None:
                                        llc_misses += Hr
                                        llc_fills.add(ln_r, hw_r)
                                    cost_hit = prefetched_cost
                                    cost_miss = memory_cost
                                    track_cov = True
                                elif cls == 1:
                                    misses += Hr
                                    l1_fills.add(hl_np[ra:rb], w_any[ra:rb])
                                    mlc_fills.settle()
                                    _bulk_rehit(
                                        mlc_sets,
                                        mlc_mask,
                                        hl_np[ra:rb],
                                        hw_np[ra:rb],
                                    )
                                    mlc_hits += Hr
                                    # An MLC hit costs mlc_cost whether or
                                    # not the prefetcher matched; the scan
                                    # below only keeps its stream state
                                    # and hit/miss stats exact.
                                    cost_hit = cost_miss = mlc_cost
                                    track_cov = False
                                else:
                                    # The per-head walk reads every level.
                                    # Every level shares the L1's line
                                    # index, and a set never holds more
                                    # than its ways, so a fill evicts at
                                    # most one line.
                                    _settle()
                                    for ln, hwk, wak, vk in zip(
                                        hl[ra:rb],
                                        hw_np[ra:rb].tolist(),
                                        w_any[ra:rb].tolist(),
                                        vo[ra:rb],
                                    ):
                                        cache_set = l1_sets[ln & set_mask]
                                        dirty = cache_set.pop(ln, _MISSING)
                                        if dirty is not _MISSING:
                                            # Head hit: the whole visit
                                            # hits; the dirty bit ends
                                            # old | any-write.
                                            cache_set[ln] = dirty or wak
                                            continue
                                        # Head miss: real fill + eviction,
                                        # then an inlined access_below_l1
                                        # descent; tails hit the line the
                                        # head made MRU.
                                        misses += 1
                                        cache_set[ln] = wak
                                        if len(cache_set) > l1_ways:
                                            if cache_set.pop(
                                                next(iter(cache_set))
                                            ):
                                                wb += 1
                                        prefetched = False
                                        if prefetcher is not None:
                                            # The first stream whose head is
                                            # within the window below ln is
                                            # also the first holding that
                                            # head, so ``index`` finds it.
                                            pf_clock += 1
                                            lo = ln - pf_window
                                            for head in pf_streams:
                                                if lo <= head <= ln:
                                                    i = pf_streams.index(head)
                                                    if head != ln:
                                                        pf_streams[i] = ln
                                                    pf_stamps[i] = pf_clock
                                                    pf_hits += 1
                                                    prefetched = True
                                                    break
                                            else:
                                                pf_misses += 1
                                                lru = pf_stamps.index(
                                                    min(pf_stamps)
                                                )
                                                pf_streams[lru] = ln
                                                pf_stamps[lru] = pf_clock
                                        mset = mlc_sets[ln & mlc_mask]
                                        mdirty = mset.pop(ln, _MISSING)
                                        if mdirty is not _MISSING:
                                            mlc_hits += 1
                                            mset[ln] = mdirty or hwk
                                            bc[vk] += mlc_cost
                                            continue
                                        mlc_misses += 1
                                        mset[ln] = hwk
                                        if len(mset) > mlc_ways:
                                            if mset.pop(next(iter(mset))):
                                                mlc_wb += 1
                                        if llc is not None:
                                            lset = llc_sets[ln & llc_mask]
                                            ldirty = lset.pop(ln, _MISSING)
                                            if ldirty is not _MISSING:
                                                llc_hits += 1
                                                lset[ln] = ldirty or hwk
                                                cost = llc_cost
                                            else:
                                                llc_misses += 1
                                                lset[ln] = hwk
                                                if len(lset) > llc_ways:
                                                    if lset.pop(
                                                        next(iter(lset))
                                                    ):
                                                        llc_wb += 1
                                                cost = memory_cost
                                        else:
                                            cost = memory_cost
                                        if prefetched:
                                            pf_covered += 1
                                            cost = prefetched_cost
                                        if cost:
                                            bc[vk] += cost
                                    continue

                                # Prefetcher + stall costs for the bulk
                                # classes (cls 2: miss-to-memory costs and
                                # coverage; cls 1: flat MLC cost, scan for
                                # stats only).  All bc additions stay in
                                # global head order, so the float fold is
                                # bit-identical to the scalar loop.
                                if prefetcher is None:
                                    if cost_miss:
                                        for k in range(ra, rb):
                                            bc[vo[k]] += cost_miss
                                    continue
                                if Hr > 1:
                                    subs = (
                                        np.flatnonzero(
                                            np.diff(hl_np[ra:rb]) < 1
                                        )
                                        + 1
                                        + ra
                                    ).tolist()
                                else:
                                    subs = []
                                sbounds = [ra, *subs, rb]
                                for zi in range(len(sbounds) - 1):
                                    za = sbounds[zi]
                                    zb = sbounds[zi + 1]
                                    # Visit 0: real scan (may allocate or
                                    # re-aim a stream).
                                    ln0 = hl[za]
                                    pf_clock += 1
                                    pf0 = False
                                    s_idx = 0
                                    i = 0
                                    for head in pf_streams:
                                        delta = ln0 - head
                                        if 0 <= delta <= pf_window:
                                            if delta:
                                                pf_streams[i] = ln0
                                            pf_stamps[i] = pf_clock
                                            pf_hits += 1
                                            pf0 = True
                                            s_idx = i
                                            break
                                        i += 1
                                    else:
                                        pf_misses += 1
                                        s_idx = pf_stamps.index(min(pf_stamps))
                                        pf_streams[s_idx] = ln0
                                        pf_stamps[s_idx] = pf_clock
                                    if pf0:
                                        if track_cov:
                                            pf_covered += 1
                                        c_ = cost_hit
                                    else:
                                        c_ = cost_miss
                                    if c_:
                                        bc[vo[za]] += c_
                                    rest = zb - za - 1
                                    if not rest:
                                        continue
                                    # Closed form: if every step fits the
                                    # window and no *other* stream head can
                                    # match any visited line, each later
                                    # visit extends the stream picked at
                                    # visit 0 (scan order is irrelevant:
                                    # competing matches are excluded).
                                    closed = bool(
                                        (
                                            np.diff(hl_np[za:zb]) <= pf_window
                                        ).all()
                                    )
                                    if closed:
                                        lo1 = hl[za + 1] - pf_window
                                        hi_ln = hl[zb - 1]
                                        i = 0
                                        for head in pf_streams:
                                            if i != s_idx and (
                                                lo1 <= head <= hi_ln
                                            ):
                                                closed = False
                                                break
                                            i += 1
                                    if closed:
                                        pf_hits += rest
                                        pf_clock += rest
                                        pf_streams[s_idx] = hi_ln
                                        pf_stamps[s_idx] = pf_clock
                                        if track_cov:
                                            pf_covered += rest
                                        if cost_hit:
                                            for k in range(za + 1, zb):
                                                bc[vo[k]] += cost_hit
                                    else:
                                        for k in range(za + 1, zb):
                                            ln = hl[k]
                                            pf_clock += 1
                                            i = 0
                                            for head in pf_streams:
                                                delta = ln - head
                                                if 0 <= delta <= pf_window:
                                                    if delta:
                                                        pf_streams[i] = ln
                                                    pf_stamps[i] = pf_clock
                                                    pf_hits += 1
                                                    if track_cov:
                                                        pf_covered += 1
                                                    c_ = cost_hit
                                                    break
                                                i += 1
                                            else:
                                                pf_misses += 1
                                                lru = pf_stamps.index(
                                                    min(pf_stamps)
                                                )
                                                pf_streams[lru] = ln
                                                pf_stamps[lru] = pf_clock
                                                c_ = cost_miss
                                            if c_:
                                                bc[vo[k]] += c_
                            hits = N - misses
                            l1.charge_bulk(hits, misses, wb)
                            level_counts[0] += hits
                            mlc.charge_bulk(mlc_hits, mlc_misses, mlc_wb)
                            level_counts[1] += mlc_hits
                            if llc is not None:
                                llc.charge_bulk(llc_hits, llc_misses, llc_wb)
                                level_counts[2] += llc_hits
                                level_counts[3] += llc_misses
                            else:
                                level_counts[3] += mlc_misses
                            hier.prefetch_covered += pf_covered
                            if prefetcher is not None:
                                prefetcher._clock = pf_clock
                                prefetcher.hits += pf_hits
                                prefetcher.misses += pf_misses

                        # Branch penalties land after each block's memory
                        # stalls: the reference per-block assembly order.
                        bc_arr = np.array(bc, dtype=np.float64)
                        if misp_pos:
                            bc_arr[misp_pos] += mispredict_penalty
                        if redir_pos:
                            bc_arr[redir_pos] += btb_redirect_penalty

                        # Exact left-to-right cycle fold; translation
                        # charges (and TIMEOUT stalls before those) splice
                        # in before their block's cycles.
                        cycles = _fold_cycles(
                            cycles, bc_arr, trans_list, nv, timeout_ctl
                        )
                        fstate.bursts_recorded += 1
                        fstate.blocks_vectorized += n
                    b_misp = len(misp_pos)
                    if bp_mode != 2:
                        # Write the walk's predictor tallies back (under
                        # force_small the unit's own method kept them).
                        bpu.lookups += m
                        bpu.mispredicts += b_misp
                        bp_btb.hits += bp_btb_hits
                        bp_btb.misses += bp_btb_misses
                        bpu.btb_misses += bp_btb_misses
                        bp_btb_hits = bp_btb_misses = 0
                        if not bp_mode:
                            bp_gshare.ghr = bp_ghr
                    counters.add_batch(
                        instructions=n_instr_sum,
                        micro_ops=micro_sum,
                        simd_instructions=nv_sum,
                        branches=m,
                        mispredicts=b_misp,
                        btb_redirects=len(redir_pos),
                        memory_ops=N,
                    )
                    bt.translated_blocks += b_translated
                    if b_entries:
                        controller.translation_executions += b_entries
                    if b_overflow:
                        htb.overflowed += b_overflow
                    if b_rc:
                        rc_stats.lookups += b_rc
                        rc_stats.hits += b_rc
                    del rec[:]
                    del interp_pos[:]
                    del misp_pos[:]
                    del redir_pos[:]
                    del trans_list[:]
                    b_translated = b_entries = b_overflow = b_rc = 0
                    c0 = cursor
                    if settle:
                        _settle()
                    pb_time += perf_counter() - t0

                def _exec_block_scalar(block, taken) -> None:
                    """Execute one (translated) block under the live config.

                    Used for the window-triggering block, which must run
                    with the *post-policy* gating state.  Address
                    generation mirrors ``AddressStream.next()`` exactly —
                    including the RNG draw order on mixed streams (the
                    flush's RNG plan advanced ``stream._rng`` through the
                    flushed accesses only).
                    """
                    nonlocal cycles, cursor
                    n_vec = block.n_vec
                    n_instr = block.n_instr
                    if n_vec:
                        extra_ops = vpu.execute(n_vec)
                        micro_ops = n_instr + extra_ops
                        counters.simd_instructions += n_vec
                        bc = micro_ops * issue_cpi
                    else:
                        micro_ops = n_instr
                        bc = n_instr * issue_cpi
                    n_mem = block.n_mem
                    if n_mem:
                        n_loads = block.n_loads
                        for i in range(n_mem):
                            if use_rng and rng_random() < random_frac:
                                r = rng_getrandbits(ws_k)
                                while r >= ws_bytes:
                                    r = rng_getrandbits(ws_k)
                                a = sbase + r
                            elif is_random:
                                r = rng_getrandbits(ws_k)
                                while r >= ws_bytes:
                                    r = rng_getrandbits(ws_k)
                                a = sbase + r
                            else:
                                a = sbase + cursor
                                cursor += stride
                                if cursor >= limit:
                                    cursor -= limit
                            is_write = i >= n_loads
                            line = a >> line_shift
                            if seg_ok:
                                # Keep the segment classifier's view of the
                                # stream current (scalar accesses are part
                                # of the same line sequence).
                                if line > space_hw[0]:
                                    space_hw[0] = line
                                space_hw[1] = line
                            cache_set = l1_sets[line & set_mask]
                            dirty = cache_set.pop(line, _MISSING)
                            if dirty is not _MISSING:
                                l1.hits += 1
                                level_counts[0] += 1
                                cache_set[line] = dirty or is_write
                            else:
                                l1.misses += 1
                                cache_set[line] = is_write
                                while len(cache_set) > l1_ways:
                                    if cache_set.pop(next(iter(cache_set))):
                                        l1.writebacks += 1
                                stall, _level = below(a, is_write)
                                if stall:
                                    bc += stall * stall_factor
                        counters.memory_ops += n_mem
                    branch = block.branch
                    if branch is not None:
                        counters.branches += 1
                        mispredicted, redirect = bpu_predict(branch.pc, taken)
                        if mispredicted:
                            counters.mispredicts += 1
                            bc += mispredict_penalty
                        elif redirect:
                            counters.btb_redirects += 1
                            bc += btb_redirect_penalty
                    counters.instructions += n_instr
                    counters.micro_ops += micro_ops
                    cycles += bc

                idx = region.entry
                for _ in repeat(None, n_blocks):
                    kind, pc, ni_b, succ, pay, bpc = steps[idx]
                    if kind == 1:
                        taken, succ = pay()
                        hbits = ((hbits << 1) | taken) & history_mask
                    elif kind == 0:
                        taken = 0
                    elif kind == 2:
                        gm, gi, noise, ts2, fs2 = pay
                        taken = ((hbits & gm).bit_count() & 1) ^ gi
                        if noise is not None:
                            taken ^= noise()
                        hbits = ((hbits << 1) | taken) & history_mask
                        succ = ts2 if taken else fs2
                    else:
                        model, ts2, fs2 = pay
                        history.bits = hbits
                        taken = model.next_outcome(history)
                        hbits = ((history.bits << 1) | taken) & history_mask
                        succ = ts2 if taken else fs2

                    # ---- BT steering (inlined continuation walk) ----
                    if cur_pcs[cur_pos] == pc:
                        cur_pos += 1
                        b_translated += 1
                    else:
                        if cur_trans is not None:
                            bt._current = None
                        mem = rc_memo_get(pc)
                        if mem is None:
                            entered = rc_get(pc)
                            if entered is not None:
                                mem = (
                                    entered,
                                    entered.block_pcs + (-1,),
                                    entered.tid,
                                    entered.n_instr,
                                )
                                rc_memo[pc] = mem
                        if mem is not None:
                            entered, cur_pcs, tid, n_i = mem
                            b_rc += 1
                            cur_trans = entered
                            cur_pos = 1
                            b_translated += 1
                            if on_entry is not None:
                                # Inlined HTB record (hoisted dicts);
                                # reverted below if the boundary is not
                                # idle (on_entry then re-records it).
                                if tid in hcounts:
                                    hcounts[tid] += n_i
                                    hexec[tid] += 1
                                    rec_kind = 0
                                elif len(hcounts) < htb_cap:
                                    hcounts[tid] = n_i
                                    hexec[tid] = 1
                                    rec_kind = 1
                                else:
                                    rec_kind = 2
                                if wexec + 1 >= window_size:
                                    # ---- window boundary ----
                                    idle = False
                                    warm = (
                                        controller.windows_seen < warmup_windows
                                    )
                                    if idle_ok:
                                        if warm:
                                            idle = True
                                        elif (
                                            controller._measuring is None
                                            and not bpu.force_small
                                        ):
                                            sig = htb_signature(sig_len)
                                            pol = pvt_peek(sig)
                                            if (
                                                pol is not None
                                                and pol.vpu_on == states.vpu_on
                                                and pol.bpu_on
                                                == states.bpu_large_on
                                                and pol.mlc_ways
                                                == states.mlc_ways
                                            ):
                                                idle = True
                                    if idle:
                                        # Replicate the boundary's
                                        # observable effects; the burst
                                        # replays straight through.
                                        b_entries += 1
                                        if rec_kind == 2:
                                            b_overflow += 1
                                        controller.windows_seen += 1
                                        fstate.note_window()
                                        if not warm:
                                            pvt.lookup(sig)
                                            fstate.note_policy_action()
                                        hcounts.clear()
                                        hexec.clear()
                                        htb.windows_completed += 1
                                        wexec = 0
                                    else:
                                        if rec_kind == 0:
                                            hcounts[tid] -= n_i
                                            hexec[tid] -= 1
                                        elif rec_kind == 1:
                                            del hcounts[tid]
                                            del hexec[tid]
                                        # Flush the burst so window stats
                                        # and cycles are exact, run the
                                        # boundary scalar, execute this
                                        # block post-policy, then start a
                                        # fresh burst.  The policy may
                                        # re-gate MLC ways and the block
                                        # probes every level, so the
                                        # queued fills settle first.
                                        _flush(settle=True)
                                        t_sc = perf_counter()
                                        htb.window_executions = wexec
                                        stall = on_entry(entered, cycles)
                                        if stall:
                                            cycles += stall
                                        wexec = 0
                                        block = region_blocks[idx]
                                        if kind:
                                            # Not in the flushed record:
                                            # the trigger runs scalar.
                                            col_branch[idx].executions += 1
                                        _exec_block_scalar(block, taken)
                                        # The policy and the trigger may
                                        # have moved the predictor.
                                        bp_mode, bp_btb = _bpu_view()
                                        bp_btb_entries = bp_btb._entries
                                        bp_btb_cap = bp_btb.n_entries
                                        bp_ghr = bp_gshare.ghr
                                        c0 = cursor
                                        vpu_gated = vpu.gated_on
                                        sc_time += perf_counter() - t_sc
                                        produced += block.n_instr
                                        if produced >= max_instructions:
                                            stream._cursor = cursor
                                            bt._current = cur_trans
                                            if cur_trans is not None:
                                                bt._pos = cur_pos
                                            history.bits = hbits
                                            return cycles
                                        idx = succ
                                        continue
                                else:
                                    wexec += 1
                                    b_entries += 1
                                    if rec_kind == 2:
                                        b_overflow += 1
                        else:
                            block = region_blocks[idx]
                            exec_mode, bt_cycles, entered = bt_on_block(block)
                            if bt_cycles:
                                trans_list.append((len(rec), bt_cycles))
                            cur_trans = bt._current
                            if cur_trans is not None:
                                cur_pcs = cur_trans.block_pcs + (-1,)
                                cur_pos = bt._pos
                            else:
                                cur_pcs = (-1,)
                                cur_pos = 0
                            if exec_mode is _INTERPRETED:
                                interp_pos.append(len(rec))

                    # ---- branch resolution (predict_and_update inlined:
                    # identical table reads and writes in identical order)
                    if kind:
                        if bp_mode == 2:
                            mispredicted, redirect = bpu_predict(bpc, taken)
                            if mispredicted:
                                misp_append(len(rec))
                            elif redirect:
                                redir_append(len(rec))
                        else:
                            key = bpc >> 2
                            if not bp_mode:
                                # The large tournament predicts.
                                hidx = key & bp_lhist_mask
                                lhistory = bp_lhist[hidx]
                                cidx = lhistory & bp_lpat_mask
                                ctr = bp_lctrs[cidx]
                                if taken:
                                    if ctr < 3:
                                        bp_lctrs[cidx] = ctr + 1
                                elif ctr > 0:
                                    bp_lctrs[cidx] = ctr - 1
                                bp_lhist[hidx] = (
                                    (lhistory << 1) | taken
                                ) & bp_lbits_mask
                                local_pred = ctr >= 2
                                gidx = (key ^ bp_ghr) & bp_gmask
                                gctr = bp_gctrs[gidx]
                                if taken:
                                    if gctr < 3:
                                        bp_gctrs[gidx] = gctr + 1
                                elif gctr > 0:
                                    bp_gctrs[gidx] = gctr - 1
                                bp_ghr = ((bp_ghr << 1) | taken) & bp_ghr_mask
                                global_pred = gctr >= 2
                                if local_pred == global_pred:
                                    prediction = local_pred
                                else:
                                    chidx = key & bp_chooser_mask
                                    cctr = bp_chooser[chidx]
                                    if global_pred == taken:
                                        if cctr < 3:
                                            bp_chooser[chidx] = cctr + 1
                                    elif cctr > 0:
                                        bp_chooser[chidx] = cctr - 1
                                    prediction = (
                                        global_pred if cctr >= 2 else local_pred
                                    )
                            # The small local predictor always trains, and
                            # predicts while the large side is gated.
                            shidx = key & bp_shist_mask
                            shistory = bp_shist[shidx]
                            scidx = shistory & bp_spat_mask
                            sctr = bp_sctrs[scidx]
                            if taken:
                                if sctr < 3:
                                    bp_sctrs[scidx] = sctr + 1
                            elif sctr > 0:
                                bp_sctrs[scidx] = sctr - 1
                            bp_shist[shidx] = (
                                (shistory << 1) | taken
                            ) & bp_sbits_mask
                            if bp_mode:
                                prediction = sctr >= 2
                            if prediction != taken:
                                misp_append(len(rec))
                            if taken:
                                if bpc in bp_btb_entries:
                                    bp_btb_entries.move_to_end(bpc)
                                    bp_btb_entries[bpc] = 0
                                    bp_btb_hits += 1
                                else:
                                    bp_btb_misses += 1
                                    if len(bp_btb_entries) >= bp_btb_cap:
                                        bp_btb_entries.popitem(last=False)
                                    bp_btb_entries[bpc] = 0
                                    if prediction:
                                        # Predicted taken, target missing.
                                        redir_append(len(rec))

                    rec_append(idx)

                    produced += ni_b
                    if produced >= max_instructions:
                        _flush(settle=True)
                        stream._cursor = cursor
                        bt._current = cur_trans
                        if cur_trans is not None:
                            bt._pos = cur_pos
                        history.bits = hbits
                        if htb is not None:
                            htb.window_executions = wexec
                        return cycles
                    if len(rec) >= burst_blocks:
                        _flush()
                    idx = succ

                _flush()
                stream._cursor = cursor
    finally:
        history.bits = hbits
        if htb is not None:
            htb.window_executions = wexec
        total = perf_counter() - t_run0
        fstate.pass_b_seconds += pb_time
        fstate.scalar_seconds += sc_time
        pa = total - pb_time - sc_time
        if pa > 0.0:
            fstate.pass_a_seconds += pa

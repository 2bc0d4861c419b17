"""Vectorized batch-replay backend: record a burst once, evaluate it as arrays.

Where the ``fastpath`` backend fuses the reference loop but still walks one
access at a time, this backend splits each steady stretch of execution (a
*burst*) into two passes:

- **Pass A (scalar, lean).**  Walk the schedule exactly as the reference
  loop would — but with every per-block cost deferred and every branch
  outcome *pre-materialized*.  Biased/Random draws (and GlobalCorrelated
  noise) come from an :class:`.rngkit.OwnedStream` over the model's own
  ``random.Random``: a stream's first values are scalar ``random()``
  calls, and once its demand passes ``rngkit._TRANSPLANT_AFTER`` values
  the Mersenne-Twister state moves into numpy once and the run reads raw
  words from it, with no state written back.  Loop/Pattern outcomes are
  closed-form over an index range, and GlobalCorrelated branches reduce
  to a popcount over the maintained history register — so the walk
  consumes precomputed (taken, successor) buffers and only steers the BT
  continuation (one index+compare against the current translation's
  block-pc tuple, with a per-run memo of region-cache entries) and the
  HTB window counter (hoisted dict ops) per block.  No predictor updates,
  no cycle math, no memory accesses: those are deferred to pass B.
- **Pass B (numpy).**  Gather per-block attribute columns
  (:meth:`CodeRegion.attr_arrays`) for the recorded indices and evaluate
  the whole burst at once: issue cycles as one elementwise product, the
  address stream in closed form (deterministic cursors, and — for
  ``random_frac > 0`` streams — a bulk RNG plan from
  :func:`rngkit.plan_stream_draws`), the cache walk via the **visit
  kernel**, and the whole branch-predictor batch via the **run-length
  kernels** below.  Monotonic counters land in one
  :meth:`PerfCounters.add_batch` / :meth:`SetAssocCache.charge_bulk`
  call per burst.

Branch-predictor kernels
    A two-bit saturating counter is a clamp map ``x -> min(B, max(A, x+s))``
    and clamp maps compose in closed form, so a whole burst of counter
    updates is a segmented prefix scan (:func:`_sat2_apply`; Hillis-Steele
    over ``(A, B, shift)`` triples, grouped by counter cell).  Per-cell
    history registers (local predictor) and the global history register
    (gshare) are B-bit sliding windows over the outcome bit-string, which
    one ``np.correlate`` against bit weights evaluates for every event at
    once (:func:`_local_kernel` / :func:`_gshare_kernel`).  The tournament
    chooser is another saturating-counter scan over the disagreement
    subsequence, and the BTB batch (:func:`_btb_batch`) resolves
    hit/miss/LRU order in closed form whenever the batch provably causes
    no evictions (falling back to an exact scalar walk near capacity).
    Every kernel returns *pre-update* predictions, so the composed batch
    is state- and output-identical to the sequential reference updates.

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
    loop, at ~``line_size/stride`` fewer Python iterations.

Segment dispatch
    Before the per-visit scalar walk, each ascending run of lines is
    classified against a per-phase high-water mark (phases live in
    disjoint 1 GB slots; line-disjointness is verified once per run).  A
    **fresh** segment — every line above its stream's mark — misses every
    level by construction, so its L1/MLC/LLC insertions happen through
    :func:`_bulk_insert` (stable set-grouped batch insert with exact
    FIFO eviction and writeback counts) and the prefetcher's sequential
    hits collapse to a closed form once its window is verifiably
    engaged.  A **warm** segment — a loop-pattern revisit whose phases'
    combined MLC footprint fits the minimum gated MLC ways observed so
    far — is an L1-miss/MLC-hit run handled by :func:`_bulk_insert` plus
    :func:`_bulk_rehit` (batched MRU-touch with dirty-OR), with zero LLC
    events.  Runs straddling the mark split at it; the first head of a
    flush is forced onto the generic walk when it continues the previous
    flush's last line (that line is L1-MRU).  Everything else takes the
    generic per-head loop, so the dispatch is exact by construction.

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
    record reaches ``_BURST_BLOCKS`` blocks.  Pass B composes exactly
    across any cut (a non-idle window end already cuts at an arbitrary
    block), so (d) changes no result; it bounds pass B's per-burst arrays
    and lists by ``_BURST_BLOCKS`` instead of by the longest steady
    stretch, so a run's memory stops growing with its budget.  A window end
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
    Probes delegate to the ``reference`` backend; full tracing delegates to
    ``fastpath``.  There is no per-access fallback anymore: ``random_frac >
    0`` and pure-random streams batch through the RNG plan.
"""

from __future__ import annotations

import zlib
from itertools import repeat
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
from repro.sim.backends.fastpath import run_fast
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

#: Outcome-buffer refill sizing: start small (cold blocks waste few draws),
#: double up to a cap so hot blocks amortize the numpy call.
_CHUNK0 = 64
_CHUNK_MAX = 32768

#: Burst-record cap: pass A flushes once ``rec`` holds this many blocks, so
#: pass B's per-burst arrays stay this size however long a steady stretch
#: runs.  Pass B composes exactly across any cut, so the value trades only
#: peak memory against the number of flushes, never results.  A flush of a
#: streaming phase rewrites every cache set it reaches (``_bulk_insert``),
#: about 3 ms on the server hierarchy: on a 2-vCPU host, 1M-instruction
#: milc/lbm MINIMAL runs took 1.2-1.3x as long at 4096 as uncapped, and
#: stayed within noise (at most 1.1x) at 8192.
_BURST_BLOCKS = 8192


# --------------------------------------------------------------------------
# Branch-predictor array kernels
# --------------------------------------------------------------------------


def _sat2_apply(table, cells, tk):
    """Batched 2-bit saturating-counter update; returns pre-update values.

    ``table`` is the live Python counter list; ``cells``/``tk`` give the
    counter index and taken bit per event in time order.  Each update is
    the clamp map ``x -> min(3, max(0, x + d))`` with ``d = ±1``; clamp
    maps form a semigroup under composition —

        ``(g o f)(x) = min(Bg, max(Ag, min(Bf, max(Af, x+Sf)) + Sg))``
        with  ``S' = Sf+Sg``, ``A' = max(Ag, Af+Sg)``,
        ``B' = min(Bg, max(Ag, Bf+Sg))``

    — so the per-cell prefix compositions come from one segmented
    Hillis-Steele scan (events stably sorted by cell).  Pre-update values
    and final cell states are then closed-form applications of the
    composed maps to the table's start values.
    """
    n = len(cells)
    order = np.argsort(cells, kind="stable")
    sc = cells[order]
    d = tk[order].astype(np.int64) * 2 - 1
    seg_first = np.empty(n, dtype=bool)
    seg_first[0] = True
    seg_first[1:] = sc[1:] != sc[:-1]
    seg_id = np.cumsum(seg_first) - 1
    start_idx = np.flatnonzero(seg_first)
    seg_start = start_idx[seg_id]
    # Prefix maps: element i holds the composition of steps [seg_start..i].
    A = np.zeros(n, dtype=np.int64)
    B = np.full(n, 3, dtype=np.int64)
    S = d.copy()
    idx = np.arange(n, dtype=np.int64)
    # The scan only needs to reach the longest segment: once ``o`` is at
    # least that, ``idx - o`` falls before every segment start and the
    # remaining doubling rounds are all no-ops.
    max_seg = int(np.diff(np.append(start_idx, n)).max())
    o = 1
    while o < max_seg:
        can = (idx - o) >= seg_start
        if can.any():
            j = idx[can] - o
            Af, Bf, Sf = A[j], B[j], S[j]
            Ag, Bg, Sg = A[can], B[can], S[can]
            A[can] = np.maximum(Ag, Af + Sg)
            B[can] = np.minimum(Bg, np.maximum(Ag, Bf + Sg))
            S[can] = Sf + Sg
        o <<= 1
    groups = sc[start_idx].tolist()
    x0 = np.array([table[c] for c in groups], dtype=np.int64)
    x0g = x0[seg_id]
    pre = np.empty(n, dtype=np.int64)
    pre[seg_first] = x0
    nf = ~seg_first
    if nf.any():
        pj = idx[nf] - 1
        pre[nf] = np.minimum(B[pj], np.maximum(A[pj], x0g[nf] + S[pj]))
    end_idx = np.append(start_idx[1:], n) - 1
    finals = np.minimum(B[end_idx], np.maximum(A[end_idx], x0 + S[end_idx]))
    for c, v in zip(groups, finals.tolist()):
        table[c] = v
    out = np.empty(n, dtype=np.int64)
    out[order] = pre
    return out


def _local_kernel(pred, keys, tk):
    """Batched :meth:`LocalPredictor.predict_update`; returns predictions.

    Per-cell B-bit history registers are sliding windows over that cell's
    outcome bit-string: build one flat bit array — per history cell, the
    B bits of its start value (MSB first) followed by its taken bits in
    time order — and a single ``np.correlate`` against the bit weights
    yields every intermediate history value.  Counter updates (indexed by
    the pre-update histories, which may collide *across* cells) then go
    through :func:`_sat2_apply` in global time order.
    """
    n = len(keys)
    bits = pred.history_bits
    hidx = keys & pred._hist_mask
    order = np.argsort(hidx, kind="stable")
    sh = hidx[order]
    seg_first = np.empty(n, dtype=bool)
    seg_first[0] = True
    seg_first[1:] = sh[1:] != sh[:-1]
    start_idx = np.flatnonzero(seg_first)
    n_groups = len(start_idx)
    seg_id = np.cumsum(seg_first) - 1
    histories = pred._histories
    groups = sh[start_idx].tolist()
    h0 = np.array([histories[g] for g in groups], dtype=np.int64)
    flat = np.zeros(n + n_groups * bits, dtype=np.int64)
    starts_f = start_idx + np.arange(n_groups, dtype=np.int64) * bits
    for t in range(bits):
        flat[starts_f + t] = (h0 >> (bits - 1 - t)) & 1
    elem_pos = np.arange(n, dtype=np.int64) + (seg_id + 1) * bits
    flat[elem_pos] = tk[order]
    kern = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    winvals = np.correlate(flat, kern, "valid")
    hist_pre_s = winvals[elem_pos - bits]
    end_idx = np.append(start_idx[1:], n) - 1
    finals = winvals[elem_pos[end_idx] + 1 - bits]
    for g, v in zip(groups, finals.tolist()):
        histories[g] = v
    hist_pre = np.empty(n, dtype=np.int64)
    hist_pre[order] = hist_pre_s
    cidx = hist_pre & pred._pat_mask
    ctr_pre = _sat2_apply(pred._counters, cidx, tk)
    return ctr_pre >= 2


def _gshare_kernel(pred, keys, tk):
    """Batched :meth:`GSharePredictor.predict_update`; returns predictions.

    The global history register is one B-bit sliding window over the whole
    batch's outcome string (same correlate trick as :func:`_local_kernel`
    with a single group).
    """
    n = len(keys)
    bits = pred.history_bits
    flat = np.empty(n + bits, dtype=np.int64)
    g0 = pred.ghr
    for t in range(bits):
        flat[t] = (g0 >> (bits - 1 - t)) & 1
    flat[bits:] = tk
    kern = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    winvals = np.correlate(flat, kern, "valid")
    ghr_pre = winvals[:n]
    pred.ghr = int(winvals[n])
    gidx = (keys ^ ghr_pre) & pred._mask
    ctr_pre = _sat2_apply(pred._counters, gidx, tk)
    return ctr_pre >= 2


def _btb_batch(btb, pcs):
    """Batched :meth:`BranchTargetBuffer.touch`; returns per-event redirects.

    ``pcs`` holds the taken-branch pcs in time order.  When the batch's
    new entries provably fit without evicting (``len + new <= capacity``),
    the result is closed-form: each new pc misses exactly once (its first
    touch), everything else hits, and the final LRU order moves the
    touched pcs to the back ordered by *last* touch.  Near capacity the
    exact scalar walk runs instead (evictions interleave with touches).
    """
    n = len(pcs)
    entries = btb._entries
    redirect = np.zeros(n, dtype=bool)
    uniq, first_idx = np.unique(pcs, return_index=True)
    new_pcs = [p for p in uniq.tolist() if p not in entries]
    if len(entries) + len(new_pcs) <= btb.n_entries:
        if new_pcs:
            first_map = dict(zip(uniq.tolist(), first_idx.tolist()))
            for p in new_pcs:
                redirect[first_map[p]] = True
        btb.hits += n - len(new_pcs)
        btb.misses += len(new_pcs)
        rev_uniq, rev_idx = np.unique(pcs[::-1], return_index=True)
        last_pos = n - 1 - rev_idx
        for p in rev_uniq[np.argsort(last_pos)].tolist():
            entries.pop(p, None)
            entries[p] = 0
    else:  # pragma: no cover - needs a profile with >capacity branch pcs
        cap = btb.n_entries
        hits = misses = 0
        for i, p in enumerate(pcs.tolist()):
            if p in entries:
                entries.move_to_end(p)
                entries[p] = 0
                hits += 1
            else:
                misses += 1
                if len(entries) >= cap:
                    entries.popitem(last=False)
                entries[p] = 0
                redirect[i] = True
        btb.hits += hits
        btb.misses += misses
    return redirect


def _bpu_batch(bpu, keys, bpcs, tk):
    """Batched :meth:`BranchUnit.predict_and_update` over one burst.

    ``keys`` are the predictor indices (``pc >> 2``), ``bpcs`` the raw
    branch pcs (BTB keys), ``tk`` the taken bits, all in time order.
    Returns ``(mispredicted, redirected)`` bool arrays.  The three modes
    mirror the scalar unit exactly: hot (tournament + small-local
    training, large BTB), force-small (small predicts, large trains,
    small BTB), gated (small only).  The mode is constant within a burst
    — only window-end policy changes it, and that flushes first.
    """
    m = len(keys)
    bpu.lookups += m
    tkb = tk.astype(bool)
    if bpu.large_on:
        large = bpu.large
        lp = _local_kernel(large.local, keys, tk)
        gp = _gshare_kernel(large.global_pred, keys, tk)
        dis = lp != gp
        if dis.any():
            chidx = keys[dis] & large._chooser_mask
            gsel = gp[dis]
            ctk = (gsel == tkb[dis]).astype(np.int64)
            cpre = _sat2_apply(large._chooser, chidx, ctk)
        if not bpu.force_small:
            pred = lp.copy()
            if dis.any():
                pred[dis] = np.where(cpre >= 2, gsel, lp[dis])
            _local_kernel(bpu.small, keys, tk)
            btb = bpu.large_btb
        else:
            pred = _local_kernel(bpu.small, keys, tk)
            btb = bpu.small_btb
    else:
        pred = _local_kernel(bpu.small, keys, tk)
        btb = bpu.small_btb
    misp = pred != tkb
    bpu.mispredicts += int(misp.sum())
    redirect = np.zeros(m, dtype=bool)
    taken_pos = np.flatnonzero(tkb)
    if len(taken_pos):
        r = _btb_batch(btb, bpcs[taken_pos])
        redirect[taken_pos] = r
        bpu.btb_misses += int(r.sum())
    return misp, redirect


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

    Every line in ``ln_np`` must be absent from its set for the whole
    event slice — callers prove this with the segment classifier (fresh
    lines were never touched; warm-loop revisits are separated by at
    least ``ways`` same-set inserts, so the prior copy is already
    evicted).  Under that precondition each per-set dict behaves as a
    pure FIFO queue — append the new line, evict from the front while
    over capacity — so the batch effect is: keep the last
    ``min(ways, c)`` of the set's new events, evict everything older.
    Returns the number of dirty writebacks; the per-set dicts end
    key-for-key identical to the scalar insert/evict loop, insertion
    order included.
    """
    sids = ln_np & mask
    order = np.argsort(sids, kind="stable")
    ls = ln_np[order]
    ds = dt_np[order]
    sid_s = sids[order]
    n = len(ls)
    gstart = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(np.diff(sid_s)) + 1)
    )
    gend = np.append(gstart[1:], n)
    cs = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(ds.astype(np.int64)))
    )
    ls_l = ls.tolist()
    ds_l = ds.tolist()
    wb = 0
    for gs, ge, sid in zip(gstart.tolist(), gend.tolist(), sid_s[gstart].tolist()):
        s = sets_map[sid]
        if ge - gs >= ways:
            # Every pre-existing entry and the oldest new events fall out.
            for v in s.values():
                if v:
                    wb += 1
            s.clear()
            ks = ge - ways
            wb += int(cs[ks] - cs[gs])
            for j in range(ks, ge):
                s[ls_l[j]] = ds_l[j]
        else:
            over = len(s) + (ge - gs) - ways
            while over > 0:
                over -= 1
                if s.pop(next(iter(s))):
                    wb += 1
            for j in range(gs, ge):
                s[ls_l[j]] = ds_l[j]
    return wb


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


class _WalkAux:
    """Per-region pass-A side state (fused step tuples + outcome buffers).

    ``steps[i]`` is one tuple ``(kind, pc, n_instr, fall_succ, pay)`` so
    the walk unpacks a block's whole dispatch state in a single indexed
    load.  ``pay`` carries the kind-specific payload: buffered kinds get
    the mutable ``[pos, taken_buf, succ_buf, refill]`` list (``pays``
    collects every such buffer for compaction), global-correlated kinds
    get ``(mask, invert, noise_pay, taken_succ, fall_succ)``, generic
    kinds ``(model, taken_succ, fall_succ)``.
    """

    __slots__ = ("kinds_arr", "bpcs_arr", "otk", "steps", "pays")


def _make_biased_refill(otk, osucc, model, tsucc, fsucc):
    chunk = [_CHUNK0]
    randoms = OwnedStream(model._rng).randoms

    def refill():
        c = chunk[0]
        if c < _CHUNK_MAX:
            chunk[0] = c * 2
        t = randoms(c) < model.p_taken
        otk.extend(t.view(np.int8).tolist())
        osucc.extend(np.where(t, tsucc, fsucc).tolist())

    return refill


def _make_loop_refill(otk, osucc, model, tsucc, fsucc):
    chunk = [_CHUNK0]

    def refill():
        c = chunk[0]
        if c < _CHUNK_MAX:
            chunk[0] = c * 2
        period = model.period
        c0 = model._count
        # next_outcome: count wraps to 0 (not-taken) when it reaches the
        # period, so draw e from state c0 is taken iff (c0+1+e) % period.
        t = (c0 + 1 + np.arange(c, dtype=np.int64)) % period != 0
        model._count = (c0 + c) % period
        otk.extend(t.view(np.int8).tolist())
        osucc.extend(np.where(t, tsucc, fsucc).tolist())

    return refill


def _make_pattern_refill(otk, osucc, model, tsucc, fsucc):
    chunk = [_CHUNK0]
    pat = np.array(model.pattern, dtype=bool)
    length = len(pat)

    def refill():
        c = chunk[0]
        if c < _CHUNK_MAX:
            chunk[0] = c * 2
        p0 = model._pos
        t = pat[(p0 + np.arange(c, dtype=np.int64)) % length]
        model._pos = (p0 + c) % length
        otk.extend(t.view(np.int8).tolist())
        osucc.extend(np.where(t, tsucc, fsucc).tolist())

    return refill


def _make_noise_refill(otk, model):
    chunk = [_CHUNK0]
    randoms = OwnedStream(model._rng).randoms

    def refill():
        c = chunk[0]
        if c < _CHUNK_MAX:
            chunk[0] = c * 2
        f = randoms(c) < model.noise
        otk.extend(f.view(np.int8).tolist())

    return refill


def _walk_table(region):
    """Per-region pass-A step table (memoized on the region object).

    Returns ``(branches, aux)``: the branch-object column (pass B bumps
    ``branch.executions``) and a :class:`_WalkAux` with the fused step
    tuples, outcome-buffer pays, and the array forms of the kind/bpc
    columns.  Buffered kinds replicate each model's ``next_outcome``
    stream byte-for-byte — including RNG draw order — which the
    equivalence suite verifies; over-materialized draws only advance
    private model state (RNG word position, loop counter, pattern
    cursor) that nothing else observes, and buffers are valid
    continuations across bursts, segments, and windows.
    """
    try:
        return region._pass_a_columns
    except AttributeError:
        pass
    branches, bpcs, kinds = [], [], []
    steps: list = []
    pays: list = []
    n = len(region.blocks)
    aux = _WalkAux()
    aux.otk = [None] * n
    for i, block in enumerate(region.blocks):
        pc = block.pc
        ts = block.taken_succ
        fs = block.fall_succ
        ni = block.n_instr
        branch = block.branch
        branches.append(branch)
        if branch is None:
            bpcs.append(0)
            kinds.append(_K_NONE)
            steps.append((_K_NONE, pc, ni, fs, None))
            continue
        bpcs.append(branch.pc)
        model = branch.model
        tm = type(model)
        # Exact-type checks: a subclass could override next_outcome, so
        # only the leaf classes we replicate verbatim are batched.
        if tm is BiasedBranch or tm is RandomBranch:
            maker = _make_biased_refill
        elif tm is LoopBranch:
            maker = _make_loop_refill
        elif tm is PatternBranch:
            maker = _make_pattern_refill
        elif tm is GlobalCorrelatedBranch:
            kinds.append(_K_GLOBAL)
            mask = 0
            for off in model.offsets:
                mask |= 1 << off
            npay = None
            if model.noise:
                notk: list = []
                npay = [0, notk, None, _make_noise_refill(notk, model)]
                pays.append(npay)
            steps.append(
                (_K_GLOBAL, pc, ni, fs, (mask, int(model.invert), npay, ts, fs))
            )
            continue
        else:
            kinds.append(_K_GENERIC)
            steps.append((_K_GENERIC, pc, ni, fs, (model, ts, fs)))
            continue
        kinds.append(_K_BUFFERED)
        otk: list = []
        osucc: list = []
        aux.otk[i] = otk
        pay = [0, otk, osucc, maker(otk, osucc, model, ts, fs)]
        pays.append(pay)
        steps.append((_K_BUFFERED, pc, ni, fs, pay))
    aux.kinds_arr = np.array(kinds, dtype=np.int64)
    aux.bpcs_arr = np.array(bpcs, dtype=np.int64)
    aux.steps = steps
    aux.pays = pays
    table = (branches, aux)
    region._pass_a_columns = table
    return table


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
        if probes:
            # Probe callbacks need the per-block BlockExec view; only the
            # reference loop provides it.
            from repro.sim.backends import get_backend

            return get_backend("reference").run(simulator, max_instructions, probes)
        if simulator.tracer.active:
            # Full event tracing wants per-block timestamps, which the
            # fused scalar loop keeps.
            return run_fast(simulator, max_instructions)
        return run_vectorized(simulator, max_instructions)


def run_vectorized(simulator: "HybridSimulator", max_instructions: int) -> float:
    """Run the two-pass burst loop; returns total cycles.

    Drop-in replacement for the probe-free body of
    :meth:`HybridSimulator.run` — on return every component counter, the
    BT walk state, and the workload's address-stream cursors hold exactly
    the values the reference loop would have left.
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
    mlc_shift = mlc._line_shift
    mlc_mask = mlc._set_mask
    if llc is not None:
        llc_sets = llc._sets
        llc_shift = llc._line_shift
        llc_mask = llc._set_mask
    if prefetcher is not None:
        pf_streams = prefetcher._streams
        pf_stamps = prefetcher._stamps
        pf_window = prefetcher.window
    vpu = core.vpu
    vpu_emul_extra = vpu.emulation_factor - 1
    bpu = core.bpu
    bpu_predict = core._bpu_predict_and_update
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
            lines_p = ((span_p + line_sz - 1) >> mlc_shift) + 1
            mlc_occ += -(-lines_p // n_mlc_sets)
    spans.sort()
    bases_disjoint = all(b % line_sz == 0 for b, _ in spans) and all(
        spans[i][0] + spans[i][1] <= spans[i + 1][0]
        for i in range(len(spans) - 1)
    )
    mlc_ways_min = mlc.active_ways
    # Per-phase [high_water_line, last_touched_line] state.
    hw_map: dict = {}

    cycles = 0.0
    produced = 0
    burst_blocks = _BURST_BLOCKS

    # Hoisted BT walk state (synced back around every bt.on_block call).
    # Invariant: ``cur_pcs`` is ``()`` whenever ``cur_trans`` is None, so
    # the steering check is a bare index+compare (IndexError = miss).
    cur_trans = bt._current
    cur_pcs: tuple = ()
    cur_pos = 0
    if cur_trans is not None:  # pragma: no cover - fresh simulators start cold
        cur_pcs = cur_trans.block_pcs
        cur_pos = bt._pos

    # Per-run steering memo: head pc -> (translation, block_pcs, tid,
    # n_instr).  RegionCache never evicts and only inserts previously
    # missing pcs, so a memo hit is always current; it replaces a dict
    # probe plus three attribute loads (``tid`` is a computed property)
    # on every region entry.
    rc_memo: dict = {}
    rc_memo_get = rc_memo.get

    # Global-correlated / generic outcomes in walk order, consumed by the
    # flush's taken-bit gather (buffered kinds re-read their own buffers).
    g_takens: list = []
    g_takens_append = g_takens.append

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
                # line index advances monotonically between wraps, with all
                # levels sharing the L1's line indexing and this phase's
                # slot line-disjoint from every other phase's.
                seg_ok = (
                    not plan_rng
                    and bases_disjoint
                    and stride > 0
                    and mlc_shift == line_shift
                    and (llc is None or llc_shift == line_shift)
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
                col_branch, aux = _walk_table(region)
                steps = aux.steps
                pays = aux.pays
                col_otk = aux.otk
                kinds_arr = aux.kinds_arr
                bpcs_arr = aux.bpcs_arr

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

                def _flush() -> None:
                    """Pass B: evaluate and apply the recorded burst."""
                    nonlocal cycles, cursor, c0, pb_time, mlc_ways_min
                    nonlocal b_translated, b_entries, b_overflow, b_rc
                    t0 = perf_counter()
                    n = len(rec)
                    n_instr_sum = micro_sum = nv_sum = 0
                    N = 0
                    m = 0
                    b_misp = b_redir = 0
                    if n:
                        bidx = np.array(rec, dtype=np.int64)
                        # Batched branch.executions: one increment per
                        # dynamic execution of a branchy block.
                        counts = np.bincount(bidx, minlength=region_len)
                        for bi in np.flatnonzero(counts).tolist():
                            br = col_branch[bi]
                            if br is not None:
                                br.executions += int(counts[bi])
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
                            vlens = np.diff(np.append(heads, N))
                            hl_np = lines[heads]
                            hw_np = wr[heads]
                            hl = hl_np.tolist()
                            ha = addr[heads].tolist()
                            hw = hw_np.tolist()
                            wa = w_any.tolist()
                            vo = owner[heads].tolist()
                            vl = vlens.tolist()
                            Hn = len(hl)
                            hits = misses = wb = 0
                            mlc_hits = mlc_misses = mlc_wb = 0
                            llc_hits = llc_misses = llc_wb = 0
                            lv_mlc = lv_llc = lv_mem = pf_covered = 0
                            pf_hits = pf_misses = 0
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
                                    # still L1-MRU, so it must take the
                                    # exact path (head hit).
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
                                    hits += int(vlens[ra:rb].sum()) - Hr
                                    wb += _bulk_insert(
                                        l1_sets,
                                        set_mask,
                                        l1_ways,
                                        hl_np[ra:rb],
                                        w_any[ra:rb],
                                    )
                                    mlc_misses += Hr
                                    mlc_wb += _bulk_insert(
                                        mlc_sets,
                                        mlc_mask,
                                        mlc_ways,
                                        hl_np[ra:rb],
                                        hw_np[ra:rb],
                                    )
                                    if llc is not None:
                                        llc_misses += Hr
                                        llc_wb += _bulk_insert(
                                            llc_sets,
                                            llc_mask,
                                            llc_ways,
                                            hl_np[ra:rb],
                                            hw_np[ra:rb],
                                        )
                                    lv_mem += Hr
                                    cost_hit = prefetched_cost
                                    cost_miss = memory_cost
                                    track_cov = True
                                elif cls == 1:
                                    misses += Hr
                                    hits += int(vlens[ra:rb].sum()) - Hr
                                    wb += _bulk_insert(
                                        l1_sets,
                                        set_mask,
                                        l1_ways,
                                        hl_np[ra:rb],
                                        w_any[ra:rb],
                                    )
                                    _bulk_rehit(
                                        mlc_sets,
                                        mlc_mask,
                                        hl_np[ra:rb],
                                        hw_np[ra:rb],
                                    )
                                    mlc_hits += Hr
                                    lv_mlc += Hr
                                    # An MLC hit costs mlc_cost whether or
                                    # not the prefetcher matched; the scan
                                    # below only keeps its stream state
                                    # and hit/miss stats exact.
                                    cost_hit = cost_miss = mlc_cost
                                    track_cov = False
                                else:
                                    for k in range(ra, rb):
                                        ln = hl[k]
                                        cache_set = l1_sets[ln & set_mask]
                                        dirty = cache_set.pop(ln, _MISSING)
                                        vn = vl[k]
                                        if dirty is not _MISSING:
                                            # Head hit: the whole visit
                                            # hits; the dirty bit ends
                                            # old | any-write.
                                            hits += vn
                                            cache_set[ln] = dirty or wa[k]
                                            continue
                                        # Head miss: real fill + eviction,
                                        # then an inlined access_below_l1
                                        # descent; tails hit the line the
                                        # head made MRU.
                                        misses += 1
                                        hits += vn - 1
                                        cache_set[ln] = wa[k]
                                        while len(cache_set) > l1_ways:
                                            if cache_set.pop(
                                                next(iter(cache_set))
                                            ):
                                                wb += 1
                                        hwk = hw[k]
                                        # Prefetcher scan (addr >>
                                        # line_shift == ln: the hierarchy
                                        # shares the L1's line shift).
                                        prefetched = False
                                        if prefetcher is not None:
                                            pf_clock += 1
                                            i = 0
                                            for head in pf_streams:
                                                delta = ln - head
                                                if 0 <= delta <= pf_window:
                                                    if delta:
                                                        pf_streams[i] = ln
                                                    pf_stamps[i] = pf_clock
                                                    pf_hits += 1
                                                    prefetched = True
                                                    break
                                                i += 1
                                            else:
                                                pf_misses += 1
                                                lru = pf_stamps.index(
                                                    min(pf_stamps)
                                                )
                                                pf_streams[lru] = ln
                                                pf_stamps[lru] = pf_clock
                                        a = ha[k]
                                        mln = a >> mlc_shift
                                        mset = mlc_sets[mln & mlc_mask]
                                        mdirty = mset.pop(mln, _MISSING)
                                        if mdirty is not _MISSING:
                                            mlc_hits += 1
                                            lv_mlc += 1
                                            mset[mln] = mdirty or hwk
                                            cost = mlc_cost
                                        else:
                                            mlc_misses += 1
                                            mset[mln] = hwk
                                            while len(mset) > mlc_ways:
                                                if mset.pop(next(iter(mset))):
                                                    mlc_wb += 1
                                            if llc is not None:
                                                lln = a >> llc_shift
                                                lset = llc_sets[lln & llc_mask]
                                                ldirty = lset.pop(
                                                    lln, _MISSING
                                                )
                                                if ldirty is not _MISSING:
                                                    llc_hits += 1
                                                    lv_llc += 1
                                                    lset[lln] = ldirty or hwk
                                                    if prefetched:
                                                        pf_covered += 1
                                                        cost = prefetched_cost
                                                    else:
                                                        cost = llc_cost
                                                else:
                                                    llc_misses += 1
                                                    lset[lln] = hwk
                                                    while len(lset) > llc_ways:
                                                        if lset.pop(
                                                            next(iter(lset))
                                                        ):
                                                            llc_wb += 1
                                                    lv_mem += 1
                                                    if prefetched:
                                                        pf_covered += 1
                                                        cost = prefetched_cost
                                                    else:
                                                        cost = memory_cost
                                            else:
                                                lv_mem += 1
                                                if prefetched:
                                                    pf_covered += 1
                                                    cost = prefetched_cost
                                                else:
                                                    cost = memory_cost
                                        if cost:
                                            bc[vo[k]] += cost
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
                            l1.charge_bulk(hits, misses, wb)
                            level_counts[0] += hits
                            mlc.charge_bulk(mlc_hits, mlc_misses, mlc_wb)
                            level_counts[1] += lv_mlc
                            if llc is not None:
                                llc.charge_bulk(llc_hits, llc_misses, llc_wb)
                                level_counts[2] += lv_llc
                            level_counts[3] += lv_mem
                            hier.prefetch_covered += pf_covered
                            if prefetcher is not None:
                                prefetcher._clock = pf_clock
                                prefetcher.hits += pf_hits
                                prefetcher.misses += pf_misses

                        # Branch batch: gather taken bits (buffered blocks
                        # re-read their consumed prefix; history-coupled
                        # kinds drain g_takens), run the predictor kernels,
                        # add penalties after each block's memory stalls —
                        # the reference per-block assembly order.
                        bc_arr = np.array(bc, dtype=np.float64)
                        kinds_g = kinds_arr[bidx]
                        br_pos = np.flatnonzero(kinds_g)
                        m = len(br_pos)
                        if m:
                            bb = bidx[br_pos]
                            kb = kinds_g[br_pos]
                            tk = np.empty(m, dtype=np.int64)
                            mask_g = kb >= _K_GLOBAL
                            n_g = int(mask_g.sum())
                            if n_g:
                                tk[mask_g] = np.array(
                                    g_takens[:n_g], dtype=np.int64
                                )
                            if n_g < m:
                                mask_b = ~mask_g
                                b1 = bb[mask_b]
                                order1 = np.argsort(b1, kind="stable")
                                sb1 = b1[order1]
                                uq, su, cu = np.unique(
                                    sb1, return_index=True, return_counts=True
                                )
                                vals = np.empty(len(b1), dtype=np.int64)
                                for u, s, c in zip(
                                    uq.tolist(), su.tolist(), cu.tolist()
                                ):
                                    vals[s : s + c] = col_otk[u][:c]
                                tk1 = np.empty(len(b1), dtype=np.int64)
                                tk1[order1] = vals
                                tk[mask_b] = tk1
                            keys = bpcs_arr[bb] >> 2
                            misp, redirect = _bpu_batch(bpu, keys, bpcs_arr[bb], tk)
                            b_misp = int(misp.sum())
                            redir_only = redirect & ~misp
                            b_redir = int(redir_only.sum())
                            mp = br_pos[misp]
                            if len(mp):
                                bc_arr[mp] += mispredict_penalty
                            rp = br_pos[redir_only]
                            if len(rp):
                                bc_arr[rp] += btb_redirect_penalty

                        # Exact left-to-right cycle fold; translation
                        # charges (and TIMEOUT stalls before those) splice
                        # in before their block's cycles.
                        cycles = _fold_cycles(
                            cycles, bc_arr, trans_list, nv, timeout_ctl
                        )
                        fstate.bursts_recorded += 1
                        fstate.blocks_vectorized += n
                    # Compact consumed outcome prefixes (including a
                    # window-trigger consumption not present in rec — its
                    # taken bit lives in the walk's local).
                    for pay in pays:
                        p = pay[0]
                        if p:
                            del pay[1][:p]
                            osu = pay[2]
                            if osu is not None:
                                del osu[:p]
                            pay[0] = 0
                    if g_takens:
                        del g_takens[:]
                    counters.add_batch(
                        instructions=n_instr_sum,
                        micro_ops=micro_sum,
                        simd_instructions=nv_sum,
                        branches=m,
                        mispredicts=b_misp,
                        btb_redirects=b_redir,
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
                    del trans_list[:]
                    b_translated = b_entries = b_overflow = b_rc = 0
                    c0 = cursor
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
                    kind, pc, ni_b, succ, pay = steps[idx]
                    if kind == 1:
                        p = pay[0]
                        buf = pay[1]
                        if p == len(buf):
                            pay[3]()
                        taken = buf[p]
                        pay[0] = p + 1
                        succ = pay[2][p]
                        hbits = ((hbits << 1) | taken) & history_mask
                    elif kind == 0:
                        taken = 0
                    elif kind == 2:
                        gm, gi, npay, ts2, fs2 = pay
                        taken = ((hbits & gm).bit_count() & 1) ^ gi
                        if npay is not None:
                            p = npay[0]
                            buf = npay[1]
                            if p == len(buf):
                                npay[3]()
                            taken ^= buf[p]
                            npay[0] = p + 1
                        g_takens_append(taken)
                        hbits = ((hbits << 1) | taken) & history_mask
                        succ = ts2 if taken else fs2
                    else:
                        model, ts2, fs2 = pay
                        history.bits = hbits
                        taken = model.next_outcome(history)
                        hbits = ((history.bits << 1) | taken) & history_mask
                        g_takens_append(int(taken))
                        succ = ts2 if taken else fs2

                    # ---- BT steering (inlined continuation walk) ----
                    try:
                        steer_hit = cur_pcs[cur_pos] == pc
                    except IndexError:
                        steer_hit = False
                    if steer_hit:
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
                                    entered.block_pcs,
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
                                        # fresh burst.
                                        _flush()
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
                                        if g_takens:
                                            del g_takens[:]
                                        for bpay in pays:
                                            bp = bpay[0]
                                            if bp:
                                                del bpay[1][:bp]
                                                osu = bpay[2]
                                                if osu is not None:
                                                    del osu[:bp]
                                                bpay[0] = 0
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
                                cur_pcs = cur_trans.block_pcs
                                cur_pos = bt._pos
                            else:
                                cur_pcs = ()
                            if exec_mode is _INTERPRETED:
                                interp_pos.append(len(rec))

                    rec_append(idx)

                    produced += ni_b
                    if produced >= max_instructions:
                        _flush()
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

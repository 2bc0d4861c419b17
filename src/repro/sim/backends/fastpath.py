"""Steady-phase fast path: fused hot loop + memoized same-line block replay.

:class:`~repro.sim.simulator.HybridSimulator` spends nearly all of its time
in a per-block loop whose work decomposes into address generation
(:meth:`AddressStream.take`), BT steering (:meth:`BTRuntime.on_block`), and
the core timing walk (:meth:`CoreModel.execute_block`).  ``run_fast``
replaces that loop with a single fused one that is *bit-identical* to the
reference path — same :class:`SimulationResult` fields, same event stream
at ``obs_level="full"`` — while eliminating its per-block overheads:

- **No BlockExec materialisation.**  Branch resolution, address generation
  and cache access are fused into the loop body; the per-block address
  list and ``BlockExec`` wrapper are never built.
- **Inline BT continuation walk.**  The common case — the next block is
  the next entry of the current translation's trace — is a two-compare
  check on hoisted locals instead of a method call.
- **Inline L1 probe.**  Each access performs the L1 dict probe directly
  and falls into the single monomorphic
  :meth:`CacheHierarchy.access_below_l1` call only on a miss.
- **Batched counters.**  Monotonic counters (instructions, micro-ops,
  L1 hit/miss/writeback, translated blocks, ...) accumulate in locals and
  are flushed by ``_sync()`` exactly where an observer could read them:
  immediately before a PowerChop window boundary and at run end.  Counters
  that are read (or published into event payloads) mid-window — BPU
  lookups, VPU native/emulated ops, all MLC/LLC/prefetcher state — are
  never batched.
- **Same-line replay (the memoization).**  After an access to cache line
  ``L``, ``L`` is the MRU of its L1 set; if the *globally next* access is
  to the same line it must hit at MRU, and its only architectural effects
  are ``hits += 1``, ``level_counts[L1] += 1`` and a possible dirty-bit
  set (none of which perturb LRU order).  The per-access guard
  ``line == last_line`` elides the dict probe in that case.  For blocks on
  a deterministic stream (``random_frac == 0`` and a non-random pattern)
  the same argument lifts to the whole block: when every address the block
  will generate provably lands on ``last_line`` (pure cursor arithmetic —
  no RNG draw is skipped), the block's entire memory walk is replayed as a
  pair of counter increments and one cursor update.

Whole-block replay is additionally gated behind ``K_STREAK`` consecutive
qualifying executions of the same static block, and the streak table is
conservatively invalidated on every gating transition, PowerChop policy
action / measurement arming, window boundary, and phase change (see
:class:`FastPathState`).  Streams with ``random_frac > 0`` never enter the
block-replay path at all — each of their accesses must consume its RNG
draw, so they always take the per-access loop.  Correctness never rests on
the streak bookkeeping: the entry guard itself is exact, so the fast path
stays bit-identical even if an invalidation hook were missed; the hooks
keep the memoization honest about phase stability rather than sound.

The loop mirrors :meth:`SyntheticWorkload.trace` (schedule walk, per-phase
stream seeding, cursor arithmetic, produced-count termination) — a change
to either must be mirrored in the other; ``tests/test_fastpath.py`` holds
the equivalence suite that catches a divergence.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Sequence

from repro.bt.runtime import ExecMode
from repro.sim.backends import FastPathState

__all__ = ["FastPathBackend", "FastPathState", "run_fast"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import HybridSimulator

#: Sentinel for the allocation-free L1 dict probe (mirrors cache.py).
_MISSING = object()

#: Consecutive qualifying executions of a static block before its memory
#: walk is replayed wholesale.
K_STREAK = 4

_INTERPRETED = ExecMode.INTERPRETED


class FastPathBackend:
    """Backend wrapper around :func:`run_fast` (probes delegate to reference)."""

    name = "fastpath"
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
        return run_fast(simulator, max_instructions)


def run_fast(simulator: "HybridSimulator", max_instructions: int) -> float:
    """Run the fused fast-path loop; returns total cycles.

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
    tracer = simulator.tracer
    tracer_active = tracer.active
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
    vpu = core.vpu
    vpu_emul_extra = vpu.emulation_factor - 1
    bpu_predict = core._bpu_predict_and_update
    # Predictor structures for the inlined hot case (large side predicting).
    # Gating flushes these tables *in place* (lists/dicts survive), so the
    # references stay valid across the whole run; the mode flags
    # (large_on / force_small) are re-read per branch.
    bpu = core.bpu
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
    bp_btb = bpu.large_btb
    bp_btb_entries = bp_btb._entries
    bp_btb_cap = bp_btb.n_entries
    issue_cpi = core._issue_cpi
    stall_factor = core._stall_factor
    interp_cpi = design.interpreter_cpi
    mispredict_penalty = design.mispredict_penalty
    btb_redirect_penalty = design.btb_redirect_penalty

    fstate = simulator.fastpath_state
    streaks = fstate.streaks

    history = workload.history
    history_mask = history._mask
    phases = workload.phases
    phase_order = workload._phase_order
    schedule = workload.schedule
    wseed = workload.seed

    htb = controller.htb if controller is not None else None
    wtrigger = htb.window_size - 1 if htb is not None else -1
    on_entry = controller.on_translation_entry if controller is not None else None
    timeout_step = timeout_ctl.step if timeout_ctl is not None else None
    bt_on_block = bt.on_block
    region_cache = bt.region_cache
    rc_get = region_cache._by_head.get
    rc_stats = region_cache.stats

    cycles = 0.0
    produced = 0

    # Batched monotonic counters (flushed by _sync).
    b_instr = b_micro = b_simd = b_branches = b_misp = b_redir = b_mem = 0
    b_l1_hits = b_l1_misses = b_l1_wb = b_translated = 0

    # Hoisted BT walk state (synced back around every bt.on_block call).
    cur_trans = bt._current
    cur_pcs: tuple = ()
    cur_pos = 0
    cur_len = 0
    if cur_trans is not None:  # pragma: no cover - fresh simulators start cold
        cur_pcs = cur_trans.block_pcs
        cur_len = len(cur_pcs)
        cur_pos = bt._pos

    # Same-line replay guard: the line / L1 set / dirty bit of the globally
    # previous access.  The L1 is never flushed or way-gated mid-run, so
    # the "last line is MRU of last_set" invariant survives every gating
    # transition, window boundary and phase change.
    last_line = -1
    last_set: dict = {}
    last_dirty = False

    def _sync() -> None:
        """Flush batched counters into their architectural homes."""
        nonlocal b_instr, b_micro, b_simd, b_branches, b_misp, b_redir, b_mem
        nonlocal b_l1_hits, b_l1_misses, b_l1_wb, b_translated
        counters.instructions += b_instr
        counters.micro_ops += b_micro
        counters.simd_instructions += b_simd
        counters.branches += b_branches
        counters.mispredicts += b_misp
        counters.btb_redirects += b_redir
        counters.memory_ops += b_mem
        l1.hits += b_l1_hits
        l1.misses += b_l1_misses
        l1.writebacks += b_l1_wb
        level_counts[0] += b_l1_hits
        bt.translated_blocks += b_translated
        b_instr = b_micro = b_simd = b_branches = b_misp = b_redir = b_mem = 0
        b_l1_hits = b_l1_misses = b_l1_wb = b_translated = 0

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
            rng_random = stream._random  # lint: rng-mirrored
            # Inlined randrange(ws_bytes): CPython's Random.randrange on a
            # positive int stop delegates to _randbelow_with_getrandbits —
            # replicated here verbatim so the draw sequence is identical
            # while skipping two interpreter frames per draw.
            rng_getrandbits = stream._rng.getrandbits  # lint: rng-mirrored
            ws_k = ws_bytes.bit_length()
            use_rng = random_frac > 0.0
            is_random = pattern == "random"
            deterministic = not use_rng and not is_random

            fstate.phase_resets += 1
            streaks.clear()

            region = phase.region
            region_blocks = region.blocks
            idx = region.entry

            for _ in range(n_blocks):
                block = region_blocks[idx]
                pc = block.pc
                branch = block.branch
                if branch is None:
                    succ = block.fall_succ
                    taken = False
                else:
                    # Inlined StaticBranch.resolve + GlobalHistory.push:
                    # the model reads history *before* the push, as there.
                    taken = branch.model.next_outcome(history)
                    history.bits = ((history.bits << 1) | taken) & history_mask
                    branch.executions += 1
                    succ = block.taken_succ if taken else block.fall_succ

                if tracer_active:
                    tracer.now = cycles
                if timeout_step is not None:
                    stall = timeout_step(block.n_vec > 0, cycles)
                    if stall:
                        cycles += stall

                # ---- BT steering (inlined continuation walk) ----
                if (
                    cur_trans is not None
                    and cur_pos < cur_len
                    and cur_pcs[cur_pos] == pc
                ):
                    cur_pos += 1
                    b_translated += 1
                    interpreting = False
                else:
                    if cur_trans is not None:
                        bt._current = None
                    # Inlined region-cache hit (the raw dict probe does not
                    # touch stats; they are counted exactly once below, as
                    # RegionCache.lookup would).
                    entered = rc_get(pc)
                    if entered is not None:
                        rc_stats.lookups += 1
                        rc_stats.hits += 1
                        cur_trans = entered
                        cur_pcs = entered.block_pcs
                        cur_len = len(cur_pcs)
                        cur_pos = 1
                        b_translated += 1
                        interpreting = False
                    else:
                        exec_mode, bt_cycles, entered = bt_on_block(block)
                        if bt_cycles:
                            cycles += bt_cycles
                        cur_trans = bt._current
                        if cur_trans is not None:
                            cur_pcs = cur_trans.block_pcs
                            cur_len = len(cur_pcs)
                            cur_pos = bt._pos
                        interpreting = exec_mode is _INTERPRETED
                    if entered is not None and on_entry is not None:
                        # The record() inside on_translation_entry may end
                        # the window, whose stats read the perf counters —
                        # flush the batches first.
                        if htb.window_executions == wtrigger:
                            _sync()
                        stall = on_entry(entered, cycles)
                        if stall:
                            cycles += stall

                # ---- issue ----
                n_vec = block.n_vec
                n_instr = block.n_instr
                if n_vec:
                    # Inlined VectorUnit.execute (n_vec is always > 0 here).
                    if vpu.gated_on:
                        vpu.native_ops += n_vec
                        extra_ops = 0
                    else:
                        vpu.emulated_ops += n_vec
                        extra_ops = n_vec * vpu_emul_extra
                    micro_ops = n_instr + extra_ops
                    b_simd += n_vec
                    if interpreting:
                        bc = n_instr * interp_cpi + extra_ops * issue_cpi
                    else:
                        bc = micro_ops * issue_cpi
                else:
                    micro_ops = n_instr
                    bc = n_instr * interp_cpi if interpreting else n_instr * issue_cpi

                # ---- memory ----
                n_mem = block.n_mem
                if n_mem:
                    elide = False
                    if deterministic:
                        end = cursor + (n_mem - 1) * stride
                        if (
                            end < limit
                            and (sbase + cursor) >> line_shift == last_line
                            and (sbase + end) >> line_shift == last_line
                        ):
                            streak = streaks.get(pc, 0)
                            if streak >= K_STREAK:
                                elide = True
                            else:
                                streaks[pc] = streak + 1
                        else:
                            streaks.pop(pc, None)
                    if elide:
                        # Every access is an MRU hit on last_line: replay
                        # the block's memory walk as counter arithmetic.
                        b_l1_hits += n_mem
                        if n_mem > block.n_loads and not last_dirty:
                            last_set[last_line] = True
                            last_dirty = True
                        cursor = end + stride
                        if cursor >= limit:
                            cursor -= limit
                        fstate.blocks_replayed += 1
                        fstate.accesses_elided += n_mem
                    else:
                        n_loads = block.n_loads
                        for i in range(n_mem):
                            # Address generation mirrors AddressStream
                            # .next()/.take() — including the RNG draw
                            # order on mixed streams.
                            if use_rng:
                                if rng_random() < random_frac or is_random:
                                    r = rng_getrandbits(ws_k)
                                    while r >= ws_bytes:
                                        r = rng_getrandbits(ws_k)
                                    addr = sbase + r
                                else:
                                    addr = sbase + cursor
                                    cursor += stride
                                    if cursor >= limit:
                                        cursor -= limit
                            elif is_random:
                                r = rng_getrandbits(ws_k)
                                while r >= ws_bytes:
                                    r = rng_getrandbits(ws_k)
                                addr = sbase + r
                            else:
                                addr = sbase + cursor
                                cursor += stride
                                if cursor >= limit:
                                    cursor -= limit

                            is_write = i >= n_loads
                            line = addr >> line_shift
                            if line == last_line:
                                # Same-line replay: MRU hit, no reorder.
                                b_l1_hits += 1
                                if is_write and not last_dirty:
                                    last_set[line] = True
                                    last_dirty = True
                                continue
                            cache_set = l1_sets[line & set_mask]
                            dirty = cache_set.pop(line, _MISSING)
                            if dirty is not _MISSING:
                                b_l1_hits += 1
                                if is_write:
                                    dirty = True
                                cache_set[line] = dirty
                                last_dirty = dirty
                            else:
                                b_l1_misses += 1
                                cache_set[line] = is_write
                                while len(cache_set) > l1_ways:
                                    if cache_set.pop(next(iter(cache_set))):
                                        b_l1_wb += 1
                                stall, _level = below(addr, is_write)
                                if stall:
                                    bc += stall * stall_factor
                                last_dirty = is_write
                            last_set = cache_set
                            last_line = line
                    b_mem += n_mem

                # ---- branch resolution through the active predictor ----
                if branch is not None:
                    b_branches += 1
                    bpc = branch.pc
                    if bpu.large_on and not bpu.force_small:
                        # Inlined BranchUnit.predict_and_update hot case:
                        # identical table reads/writes in identical order
                        # (bpu.lookups / mispredicts / btb stats are read
                        # mid-window by observers, so they stay direct).
                        bpu.lookups += 1
                        key = bpc >> 2
                        hidx = key & bp_lhist_mask
                        lhistory = bp_lhist[hidx]
                        cidx = lhistory & bp_lpat_mask
                        ctr = bp_lctrs[cidx]
                        if taken:
                            if ctr < 3:
                                bp_lctrs[cidx] = ctr + 1
                        elif ctr > 0:
                            bp_lctrs[cidx] = ctr - 1
                        bp_lhist[hidx] = ((lhistory << 1) | taken) & bp_lbits_mask
                        local_pred = ctr >= 2

                        ghr = bp_gshare.ghr
                        gidx = (key ^ ghr) & bp_gmask
                        gctr = bp_gctrs[gidx]
                        if taken:
                            if gctr < 3:
                                bp_gctrs[gidx] = gctr + 1
                        elif gctr > 0:
                            bp_gctrs[gidx] = gctr - 1
                        bp_gshare.ghr = ((ghr << 1) | taken) & bp_ghr_mask
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
                            prediction = global_pred if cctr >= 2 else local_pred

                        shidx = key & bp_shist_mask
                        shistory = bp_shist[shidx]
                        scidx = shistory & bp_spat_mask
                        sctr = bp_sctrs[scidx]
                        if taken:
                            if sctr < 3:
                                bp_sctrs[scidx] = sctr + 1
                        elif sctr > 0:
                            bp_sctrs[scidx] = sctr - 1
                        bp_shist[shidx] = ((shistory << 1) | taken) & bp_sbits_mask

                        redirect = False
                        if taken:
                            if bpc in bp_btb_entries:
                                bp_btb_entries.move_to_end(bpc)
                                bp_btb_entries[bpc] = 0
                                bp_btb.hits += 1
                            else:
                                bp_btb.misses += 1
                                if len(bp_btb_entries) >= bp_btb_cap:
                                    bp_btb_entries.popitem(last=False)
                                bp_btb_entries[bpc] = 0
                                redirect = True
                                bpu.btb_misses += 1
                        if prediction != taken:
                            bpu.mispredicts += 1
                            b_misp += 1
                            bc += mispredict_penalty
                        elif redirect:
                            b_redir += 1
                            bc += btb_redirect_penalty
                    else:
                        mispredicted, redirect = bpu_predict(bpc, taken)
                        if mispredicted:
                            b_misp += 1
                            bc += mispredict_penalty
                        elif redirect:
                            b_redir += 1
                            bc += btb_redirect_penalty

                b_instr += n_instr
                b_micro += micro_ops
                cycles += bc
                produced += n_instr
                if produced >= max_instructions:
                    stream._cursor = cursor
                    bt._current = cur_trans
                    if cur_trans is not None:
                        bt._pos = cur_pos
                    _sync()
                    return cycles
                idx = succ

            stream._cursor = cursor

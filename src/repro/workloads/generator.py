"""Trace generation: address streams, phases, and synthetic workloads."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.blocks import BasicBlock, BlockExec, CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    GlobalHistory,
    LoopBranch,
    PatternBranch,
    RandomBranch,
    StaticBranch,
)
from repro.isa.instructions import InstructionMix

CACHE_LINE = 64
#: Address-space slot reserved per phase so distinct phases never alias.
_PHASE_SLOT = 1 << 30


@dataclass(frozen=True)
class MemoryBehavior:
    """Per-phase data-access behaviour.

    ``pattern`` selects the generator:

    - ``"loop"``   — repeatedly sweep a working set of ``working_set_kb``;
      hits in whatever cache level the working set fits in once warm.
    - ``"stream"`` — monotonically advancing addresses (no reuse beyond the
      cache line); the classic MLC-defeating access pattern.
    - ``"random"`` — uniform accesses within the working set.

    ``random_frac`` mixes uniform working-set accesses into the base pattern.
    """

    working_set_kb: float = 32.0
    pattern: str = "loop"
    stride: int = 8
    random_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.pattern not in ("loop", "stream", "random"):
            raise ValueError(f"unknown memory pattern {self.pattern!r}")
        if self.working_set_kb <= 0:
            raise ValueError("working set must be positive")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if not 0.0 <= self.random_frac <= 1.0:
            raise ValueError("random_frac must be in [0, 1]")


class AddressStream:
    """Stateful address generator implementing a :class:`MemoryBehavior`."""

    __slots__ = (
        "behavior",
        "base",
        "_cursor",
        "_ws_bytes",
        "_rng",
        "_random",
        "_randrange",
        "_stream_limit",
    )

    def __init__(self, behavior: MemoryBehavior, base: int, seed: int = 0) -> None:
        self.behavior = behavior
        self.base = base
        self._cursor = 0
        self._ws_bytes = max(int(behavior.working_set_kb * 1024), behavior.stride)
        self._rng = random.Random(seed)
        # Hoisted bound methods: ``next()`` sits on the simulator's hottest
        # path, where the two attribute walks per RNG call are measurable.
        self._random = self._rng.random
        self._randrange = self._rng.randrange
        # Streams wrap within a large private region so addresses stay bounded
        # while never re-touching lines soon enough to hit in the MLC.
        self._stream_limit = _PHASE_SLOT // 2

    def next(self) -> int:
        behavior = self.behavior
        if behavior.random_frac and self._random() < behavior.random_frac:
            return self.base + self._randrange(self._ws_bytes)
        if behavior.pattern == "loop":
            addr = self.base + self._cursor
            self._cursor = (self._cursor + behavior.stride) % self._ws_bytes
            return addr
        if behavior.pattern == "stream":
            addr = self.base + self._cursor
            self._cursor = (self._cursor + behavior.stride) % self._stream_limit
            return addr
        return self.base + self._randrange(self._ws_bytes)

    def take(self, n: int) -> List[int]:
        """Generate ``n`` addresses (hot path: avoids per-call dispatch)."""
        behavior = self.behavior
        random_frac = behavior.random_frac
        if behavior.pattern == "random" or random_frac:
            next_addr = self.next
            return [next_addr() for _ in range(n)]
        base = self.base
        cursor = self._cursor
        stride = behavior.stride
        limit = self._ws_bytes if behavior.pattern == "loop" else self._stream_limit
        out = []
        append = out.append
        for _ in range(n):
            append(base + cursor)
            cursor += stride
            if cursor >= limit:
                cursor -= limit
        self._cursor = cursor
        return out


@dataclass
class PhaseSpec:
    """A runnable phase: a code region plus the data behaviour it exhibits."""

    name: str
    region: CodeRegion
    memory: MemoryBehavior
    stream: Optional[AddressStream] = None

    def address_stream(self, phase_index: int, seed: int) -> AddressStream:
        """Lazily create (and persist) this phase's address stream.

        The stream survives across phase recurrences so that data reuse when
        a phase comes back — the thing that makes the MLC criticality of a
        recurring phase *stable* — is modelled.
        """
        if self.stream is None:
            base = (phase_index + 1) * _PHASE_SLOT
            self.stream = AddressStream(self.memory, base, seed)
        return self.stream


class RegionBuilder:
    """Builds the CFG for one code region from distribution parameters.

    The topology is a loop over ``n_blocks`` main-path blocks.  Each main
    block may be paired with a rarely-taken side block (guarded by a biased
    branch), which is where *sparse* vector work lives — the behaviour class
    that defeats timeout-based VPU gating (paper §V-E, namd).
    """

    def __init__(self, rng: random.Random, pc_base: int) -> None:
        self._rng = rng
        self._next_pc = pc_base

    def _alloc_pc(self, n_instr: int) -> int:
        pc = self._next_pc
        self._next_pc += n_instr * 4
        return pc

    def _make_branch_model(self, branch_mix: Dict[str, float], bias: float):
        kinds = list(branch_mix.keys())
        weights = list(branch_mix.values())
        kind = self._rng.choices(kinds, weights=weights)[0]
        seed = self._rng.randrange(1 << 30)
        if kind == "biased":
            # Jitter the bias so distinct static branches have distinct taken
            # probabilities.  Block visit frequencies are products of these,
            # so the jitter keeps expected frequencies generically untied —
            # which is what makes hottest-N phase signatures stable.
            b = min(0.995, max(0.70, bias + self._rng.uniform(-0.06, 0.06)))
            p = b if self._rng.random() < 0.5 else 1.0 - b
            return BiasedBranch(p, seed)
        if kind == "loop":
            return LoopBranch(self._rng.randint(8, 48))
        if kind == "pattern":
            length = self._rng.randint(3, 8)
            pattern = [self._rng.random() < 0.5 for _ in range(length)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            return PatternBranch(pattern)
        if kind == "global":
            offsets = tuple(sorted(self._rng.sample(range(1, 8), k=2)))
            return GlobalCorrelatedBranch(offsets, noise=0.02, seed=seed)
        if kind == "random":
            return RandomBranch(seed)
        raise ValueError(f"unknown branch kind {kind!r}")

    def _make_mix(
        self,
        avg_block_size: int,
        mem_frac: float,
        store_frac: float,
        vector_instrs: int,
    ) -> InstructionMix:
        n = max(3, int(self._rng.gauss(avg_block_size, avg_block_size * 0.25)))
        body = max(n - 1, 2)  # one slot for the terminating branch
        mem = min(body - 1, max(0, round(body * mem_frac)))
        stores = round(mem * store_frac)
        loads = mem - stores
        vector = min(vector_instrs, body - mem)
        scalar = body - mem - vector
        return InstructionMix(
            scalar=scalar, vector=vector, loads=loads, stores=stores, has_branch=True
        )

    def build(
        self,
        region_id: int,
        n_blocks: int,
        avg_block_size: int,
        mem_frac: float,
        store_frac: float,
        vector_frac: float,
        vector_style: str,
        branch_mix: Dict[str, float],
        bias: float,
        side_block_prob: float = 0.25,
    ) -> CodeRegion:
        if vector_style not in ("none", "dense", "sparse"):
            raise ValueError(f"unknown vector_style {vector_style!r}")
        blocks: List[BasicBlock] = []
        main_indices: List[int] = []
        avg_vec_per_block = vector_frac * avg_block_size

        # First lay out main-path blocks, reserving slots; side blocks appended
        # afterwards so main-path indices are stable.
        plans = []
        for i in range(n_blocks):
            has_side = self._rng.random() < side_block_prob
            plans.append(has_side)

        side_plans: List[Tuple[int, int]] = []  # (main index, side index)
        for i, has_side in enumerate(plans):
            dense_vec = 0
            if vector_style == "dense":
                dense_vec = max(0, round(self._rng.gauss(avg_vec_per_block, 1.0)))
            mix = self._make_mix(avg_block_size, mem_frac, store_frac, dense_vec)
            pc = self._alloc_pc(mix.total)
            model = self._make_branch_model(branch_mix, bias)
            branch = StaticBranch(pc=pc + (mix.total - 1) * 4, model=model)
            block = BasicBlock(pc, mix, branch)
            main_indices.append(len(blocks))
            blocks.append(block)
            if has_side:
                side_plans.append((i, -1))

        # Side blocks: small, unconditional, fall back into the main loop.
        for k, (main_i, _) in enumerate(side_plans):
            sparse_vec = 0
            if vector_style == "sparse":
                sparse_vec = self._rng.randint(1, 4)
            mix = self._make_mix(
                max(4, avg_block_size // 2), mem_frac, store_frac, sparse_vec
            )
            mix = InstructionMix(
                scalar=mix.scalar + 1,  # reclaim the branch slot
                vector=mix.vector,
                loads=mix.loads,
                stores=mix.stores,
                has_branch=False,
            )
            pc = self._alloc_pc(mix.total)
            side_index = len(blocks)
            blocks.append(BasicBlock(pc, mix, None))
            side_plans[k] = (main_i, side_index)

        # Wire successors.  Real code executes with heavily *skewed* block
        # frequencies (inner loops dominate), and PowerChop's hottest-N phase
        # signatures rely on that skew being stable.  The topology therefore
        # is: main block i falls through to i+1 (wrapping at the end); a
        # taken branch either (a) detours through the block's side block,
        # (b) closes an inner loop by jumping back 1-3 blocks when the
        # branch is a loop backedge, or (c) skips the next main block.
        side_of = dict(side_plans)
        for i, main_idx in enumerate(main_indices):
            block = blocks[main_idx]
            nxt = main_indices[(i + 1) % n_blocks]
            block.fall_succ = nxt
            if i in side_of:
                block.taken_succ = side_of[i]
                if vector_style == "sparse":
                    # Sparse vector work must be *rare but recurring*: guard
                    # the detour with a weakly-taken biased branch regardless
                    # of the region's nominal branch mix.
                    seed = self._rng.randrange(1 << 30)
                    assert block.branch is not None
                    block.branch.model = BiasedBranch(0.03, seed)
            elif isinstance(block.branch.model, LoopBranch) and i >= 1:
                back = self._rng.randint(1, min(4, i))
                block.taken_succ = main_indices[i - back]
            else:
                block.taken_succ = main_indices[(i + 2) % n_blocks]
        for main_i, side_idx in side_plans:
            rejoin = main_indices[(main_i + 1) % n_blocks]
            blocks[side_idx].fall_succ = rejoin
            blocks[side_idx].taken_succ = rejoin

        return CodeRegion(region_id, blocks, entry=main_indices[0])


def _no_addresses(n: int) -> Tuple[int, ...]:
    """``AddressStream.take`` stand-in for address-free trace scans."""
    return ()


class SyntheticWorkload:
    """A fully-instantiated synthetic benchmark ready to produce a trace.

    Instances are single-use per simulation run (branch models and address
    streams are stateful); build a fresh one per run via
    :func:`repro.workloads.profiles.build_workload` to replay the identical
    instruction stream under different processor configurations.
    """

    def __init__(
        self,
        name: str,
        suite: str,
        phases: Sequence[PhaseSpec],
        schedule: Sequence[Tuple[str, int]],
        seed: int,
    ) -> None:
        if not phases:
            raise ValueError("workload needs at least one phase")
        if not schedule:
            raise ValueError("workload needs a non-empty schedule")
        self.name = name
        self.suite = suite
        self.phases: Dict[str, PhaseSpec] = {p.name: p for p in phases}
        self._phase_order = {p.name: i for i, p in enumerate(phases)}
        for entry_name, n_blocks in schedule:
            if entry_name not in self.phases:
                raise ValueError(f"schedule references unknown phase {entry_name!r}")
            if n_blocks <= 0:
                raise ValueError("schedule entries must execute >= 1 block")
        self.schedule = list(schedule)
        self.seed = seed
        self.history = GlobalHistory()

    def trace(
        self, max_instructions: Optional[int] = None, addresses: bool = True
    ) -> Iterator[BlockExec]:
        """Yield dynamic block executions following the phase schedule.

        The schedule repeats from the start until ``max_instructions`` guest
        instructions have been produced (or runs once when unbounded).

        ``addresses=False`` is for read-only scans that look only at the
        block sequence (statistics, basic-block vectors): every
        ``BlockExec.addresses`` is ``()`` and no phase's
        :class:`AddressStream` is created, which skips the per-access
        address generation.  The ``(block, taken, phase_name)`` sequence is
        the same as with addresses, because each address stream draws from
        its own RNG and never touches the branch models.  Branch models
        still advance, so the workload stays single-use either way.

        NOTE: :func:`repro.sim.backends.fastpath.run_fast` inlines this generator
        (schedule walk, per-phase stream seeding, cursor arithmetic,
        produced-count termination) so it can fuse address generation into
        the cache walk.  Any semantic change here must be mirrored there —
        the fast-path equivalence suite (``tests/test_fastpath.py``) will
        catch a divergence.
        """
        history = self.history
        produced = 0
        repeat = max_instructions is not None
        while True:
            for phase_name, n_blocks in self.schedule:
                phase = self.phases[phase_name]
                if addresses:
                    # crc32, not hash(): str hashing is salted per process
                    # (PYTHONHASHSEED), and a hash-dependent seed would make
                    # traces differ across processes — breaking the engine's
                    # serial-vs-pool bit-identity and golden-trace fixtures.
                    take = phase.address_stream(
                        self._phase_order[phase_name],
                        self.seed ^ zlib.crc32(phase_name.encode()) & 0xFFFF,
                    ).take
                else:
                    take = _no_addresses
                region = phase.region
                region_blocks = region.blocks
                idx = region.entry
                for _ in range(n_blocks):
                    block = region_blocks[idx]
                    succ, taken = block.next_block(history)
                    n_mem = block.n_mem
                    yield BlockExec(
                        block, taken, take(n_mem) if n_mem else (), phase_name
                    )
                    produced += block.n_instr
                    if max_instructions is not None and produced >= max_instructions:
                        return
                    idx = succ
            if not repeat:
                return

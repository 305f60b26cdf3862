"""Deterministic synthetic trace generation.

A trace is produced from a :class:`~repro.trace.profiles.BenchmarkProfile`
plus a seed. The generator models a synthetic *static program*:

* a code footprint of ``code_kb`` holding one instruction per 4-byte
  slot, with a branch site every ``1/branch_frac`` slots — so branch
  PCs recur at a fixed set of static sites and the gshare predictor can
  actually learn them;
* each branch site has a fixed dominant direction and a fixed target
  (backward with 70 % probability, loop-like); dynamic outcomes follow
  the dominant direction with probability ``branch_predictability``;
* destination registers are assigned round-robin within the integer /
  floating-point register pools, so a producer ``d < 31`` class-writes
  back is still architecturally live — register dependences are *true*
  dependences with exactly controlled distances;
* data addresses mix sequential stride streams (``seq_frac``) with
  uniform references over the ``footprint_kb`` working set, and loads
  optionally chain through the previous load's destination
  (``pointer_chase``) to model pointer codes.

Traces are independent of the machine configuration, so the runner
replays one trace per mix slot across every scheduler/IQ-size
combination of an experiment — both a large speedup and a guarantee
that scheduler comparisons see identical instruction streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.opcodes import FP_PRODUCERS, OpClass
from repro.isa.registers import (
    FP_BASE,
    NO_REG,
    REG_FP_ZERO,
    REG_INT_ZERO,
)
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.util.rng import make_rng

#: Writable (renamable) registers per class: r0..r30 / f0..f30.
_INT_POOL = REG_INT_ZERO  # 31 registers: 0..30
_FP_POOL = REG_FP_ZERO - FP_BASE  # 31 registers: 32..62

#: Probability that an ALU/FP/branch instruction has at least one
#: register source (the rest use immediates / the zero register).
_FIRST_SRC_PROB = 0.9

#: Fraction of branch sites whose taken target is backward (loops).
_BACKWARD_FRAC = 0.7

#: Probability that an instruction's second source operand is produced by
#: a different dependence strand than its first.
_CROSS_STRAND_PROB = 0.15

#: Probability that a computation's first source is the strand's most
#: recently loaded value. Loaded values fan out to many direct consumers
#: in real code; on a cache miss those consumers are exactly the
#: instructions that reach dispatch with two non-ready operands, wait
#: long for the first (the load), and then issue in a burst — the
#: population the 2OP_* schedulers keep out of the issue queue.
_LOAD_CONSUME_PROB = 0.35

#: Stride streams used for sequential accesses (bytes). Small strides so
#: a 256-byte L1 line serves ~10-30 stream accesses, approximating the
#: spatial locality real compiled loops exhibit.
_STREAM_STRIDES = (8, 8, 16, 32)

#: Size of the L1-resident "hot set" that captures temporal locality
#: (stack frames, globals, hot heap objects).
_HOT_BYTES = 8 * 1024

#: Upper bound on each stride stream's circular region. Streams model
#: repeated loop passes over the same arrays, so they wrap: after warmup
#: their lines live in the cache hierarchy and the truly memory-bound
#: traffic is carried by the uniform-random component instead.
_STREAM_REGION_BYTES = 32 * 1024

#: Data prefix (bytes) covered by ``Trace.warm_addrs``. In steady state a
#: working set no larger than the cache hierarchy is fully resident; at
#: reduced simulation scales the uniform-random access component would
#: otherwise see only compulsory misses. Touching the first
#: ``min(footprint, cap)`` bytes before measurement reproduces the
#: steady-state residency: small footprints become fully cached, while
#: for huge footprints the resident fraction matches capacity/footprint.
_WARM_PREFIX_CAP = 4 * 1024 * 1024

#: Stride of the warm-address walk; covers every line for line sizes
#: >= 128 bytes (Table 1 uses 128/256/512-byte lines).
_WARM_STEP = 128

#: Instructions per block of the assembly loop: the pre-drawn arrays are
#: converted to Python scalars one block at a time (see generate_trace).
_BLOCK = 4096

_OP_LIST = list(OpClass)
_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_NOP = int(OpClass.NOP)
#: Whether each op code writes a floating-point register.
_FP_PRODUCER = tuple(op in FP_PRODUCERS for op in _OP_LIST)


@dataclass(slots=True)
class Trace:
    """A generated instruction stream, stored column-wise.

    Columns are plain Python lists for fast scalar access in the
    simulator's fetch loop (NumPy scalar indexing would dominate the
    profile otherwise — see DESIGN.md §6).
    """

    name: str
    seed: int
    op: list[int] = field(repr=False)
    dest: list[int] = field(repr=False)
    src1: list[int] = field(repr=False)
    src2: list[int] = field(repr=False)
    pc: list[int] = field(repr=False)
    addr: list[int] = field(repr=False)
    taken: list[bool] = field(repr=False)
    target: list[int] = field(repr=False)
    #: data addresses to touch (in order) before timed simulation so the
    #: cache hierarchy starts in steady-state residency; see
    #: :data:`_WARM_PREFIX_CAP`.
    warm_addrs: list[int] = field(default_factory=list, repr=False)
    #: instruction addresses to pre-touch (hot code is L1I/L2 resident in
    #: steady state).
    warm_pcs: list[int] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.op)

    def instruction(self, i: int):
        """Materialise instruction ``i`` as a TraceInstruction (tests)."""
        from repro.isa.instruction import TraceInstruction

        return TraceInstruction(
            op=OpClass(self.op[i]),
            dest=self.dest[i],
            src1=self.src1[i],
            src2=self.src2[i],
            pc=self.pc[i],
            addr=self.addr[i],
            taken=self.taken[i],
            target=self.target[i],
        )

    def iter_instructions(self):
        """Yield every instruction as a TraceInstruction (tests/examples)."""
        for i in range(len(self.op)):
            yield self.instruction(i)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _draw_ops(profile: BenchmarkProfile, n: int,
              rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` non-branch operation classes from the profile mix."""
    classes = [op for op in _OP_LIST if op is not OpClass.BRANCH]
    probs = np.array([profile.mix.get(op, 0.0) for op in classes], dtype=float)
    total = probs.sum()
    if total <= 0:
        raise ValueError(f"{profile.name}: mix has no non-branch operations")
    probs /= total
    idx = rng.choice(len(classes), size=n, p=probs)
    lut = np.array([int(op) for op in classes], dtype=np.uint8)
    return lut[idx]


def generate_trace(profile: BenchmarkProfile | str, n: int,
                   seed: int = 0) -> Trace:
    """Generate ``n`` instructions of the given benchmark.

    Deterministic in ``(profile.fingerprint(), n, seed)``. Every call
    generates afresh; :func:`repro.experiments.runner.thread_traces`
    memoises the slot traces a sweep replays.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if n <= 0:
        raise ValueError(f"trace length must be positive, got {n}")
    rng = make_rng(seed, "trace", profile.name)

    branch_frac = profile.mix.get(OpClass.BRANCH, 0.0)
    # Static layout: one branch site every `period` slots.
    period = max(2, round(1.0 / branch_frac)) if branch_frac > 0 else 0
    code_slots = max(period * 4 if period else 64,
                     (profile.code_kb * 1024) // 4)
    if period:
        # Align the code footprint to whole blocks.
        code_slots -= code_slots % period
        num_sites = code_slots // period
    else:
        num_sites = 0

    # Per-site static branch behaviour. Outcomes follow a loop-like
    # pattern — the dominant direction for `K-1` out of `K` occurrences —
    # so a history-based predictor can actually learn them (purely
    # Bernoulli outcomes have maximal history entropy and would defeat
    # gshare in a way real programs do not). Noise occurrences flip the
    # pattern, tuning the achievable accuracy to
    # ``branch_predictability``.
    if num_sites:
        site_rng = make_rng(seed, "sites", profile.name)
        # ~30 % of sites are loop latches: taken-dominant, jumping
        # backward over a small body so execution revisits the same
        # handful of sites with repeating outcomes — the path locality a
        # real gshare predictor feeds on. The rest are fall-through
        # conditionals (not-taken-dominant, occasionally skipping
        # forward).
        latch = site_rng.random(num_sites) < _BACKWARD_FRAC * 0.45
        dominant_taken = latch.copy()
        mispred_budget = max(0.005, 1.0 - profile.branch_predictability)
        base_period = max(4, round(3.0 / mispred_budget))
        site_period = site_rng.integers(
            max(3, base_period // 2), base_period * 2, num_sites
        )
        site_count = np.zeros(num_sites, dtype=np.int64)
        noise_prob = mispred_budget / 3.0
        # Targets are block starts (slot index of the block's first insn).
        back_off = site_rng.integers(1, 9, num_sites)  # blocks backward
        fwd_off = site_rng.integers(1, 9, num_sites)  # blocks forward
        site_block = np.arange(num_sites)
        target_block = np.where(
            latch,
            (site_block - back_off) % num_sites,
            (site_block + fwd_off) % num_sites,
        )
        target_slot = target_block * period
    else:  # pragma: no cover - profiles always include branches
        dominant_taken = target_slot = None
        site_period = site_count = None
        noise_prob = 0.0

    # Pre-drawn randomness (vectorised; the assembly loop below is
    # scalar). Each uniform draw is compared with its one threshold here.
    ops_pool = _draw_ops(profile, n, rng)
    first_src = rng.random(n) < _FIRST_SRC_PROB
    two_src = rng.random(n) < profile.frac_two_src
    # Long-lived ("far") operands are always ready at dispatch; model
    # them as dependence-free (see BenchmarkProfile.far_src_frac).
    far1 = rng.random(n) < profile.far_src_frac
    far2 = rng.random(n) < profile.far_src_frac
    seq = rng.random(n) < profile.seq_frac
    chase = rng.random(n) < profile.pointer_chase
    noise = rng.random(n) < noise_prob
    # Draws lie in [0, 1), so a zero fraction never picks an FP register.
    fp_load = rng.random(n) < profile.fp_load_frac
    # Geometric dependence distances, drawn per potential source. The
    # distance is measured in *class-producer* occurrences; scale the mean
    # so the distance in dynamic instructions matches `dep_mean`.
    producer_frac = max(
        0.05,
        sum(
            frac for op, frac in profile.mix.items()
            if op not in (OpClass.STORE, OpClass.BRANCH)
        ),
    )
    # Distances are drawn within the instruction's dependence strand, so
    # divide by the strand count to keep `dep_mean` in whole-stream terms.
    # The floor keeps an instruction's two sources frequently *distinct*
    # registers — a mean of exactly 1 would collapse both onto the
    # strand's last producer, making two-non-ready (NDI) situations
    # impossible and neutering the 2OP_* designs under study.
    strands = profile.strands
    mean_dp = max(1.7, profile.dep_mean * producer_frac / strands)
    p_geom = min(1.0, 1.0 / mean_dp)
    dist1 = rng.geometric(p_geom, n)
    dist2 = rng.geometric(p_geom, n)
    strand_of = rng.integers(0, strands, n)
    # Second sources frequently come from a *different* strand, so the two
    # operands of an instruction arrive at very different times — the
    # paper's observation that two-non-ready instructions spend most of
    # their wait on the first source. The XOR trick picks a distinct
    # strand when there is more than one.
    cross2 = rng.random(n) < _CROSS_STRAND_PROB
    cross_pick = rng.integers(1, max(2, strands), n)
    load_src = rng.random(n) < _LOAD_CONSUME_PROB
    footprint = max(4096, profile.footprint_kb * 1024)
    # Non-stream accesses split between an L1-resident hot set (temporal
    # locality) and uniform references over the full working set.
    hot_bytes = min(footprint, _HOT_BYTES)
    hot = rng.random(n) < profile.hot_frac
    hot_addr = rng.integers(0, hot_bytes, n) & ~7
    rand_addr = rng.integers(0, footprint, n) & ~7
    stream_pick = rng.integers(0, len(_STREAM_STRIDES), n)
    # Each stream walks circularly over its own region of the footprint;
    # see _STREAM_REGION_BYTES.
    stream_region = max(
        1024, min(footprint // len(_STREAM_STRIDES), _STREAM_REGION_BYTES)
    )
    stream_base = [
        int(rng.integers(0, max(1, footprint - stream_region))) & ~7
        for _ in _STREAM_STRIDES
    ]
    stream_off = [0] * len(_STREAM_STRIDES)
    drawn = (first_src, two_src, far1, far2, seq, chase, noise, fp_load,
             dist1, dist2, strand_of, cross2, cross_pick, load_src, hot,
             hot_addr, rand_addr, stream_pick)
    if num_sites:
        site_period = site_period.tolist()
        site_count = site_count.tolist()
        dominant_taken = dominant_taken.tolist()
        target_slot = target_slot.tolist()

    # Rolling producer rings (registers written, most recent last), one
    # per dependence strand and register class. Ring capacities divide the
    # register pool so every ringed register is still architecturally live.
    cap_int = max(2, _INT_POOL // strands)
    cap_fp = max(2, _FP_POOL // strands)
    rings_int: list[list[int]] = [[] for _ in range(strands)]
    rings_fp: list[list[int]] = [[] for _ in range(strands)]
    rr_int = 0
    rr_fp = 0
    last_load_dest = [NO_REG] * strands

    op_col: list[int] = [0] * n
    dest_col: list[int] = [NO_REG] * n
    src1_col: list[int] = [NO_REG] * n
    src2_col: list[int] = [NO_REG] * n
    pc_col: list[int] = [0] * n
    addr_col: list[int] = [0] * n
    taken_col: list[bool] = [False] * n
    target_col: list[int] = [0] * n

    pc_slot = 0
    pool_i = 0  # index into the pre-drawn non-branch op pool

    def pick_src(ring: list[int], dist: int) -> int:
        if not ring:
            return NO_REG
        d = dist if dist <= len(ring) else len(ring)
        return ring[-d]

    for start in range(0, n, _BLOCK):
        stop = min(n, start + _BLOCK)
        # This block's draws as Python scalars, indexed by i - start:
        # reading NumPy scalars one at a time would dominate the loop,
        # while converting the whole trace at once would hold every
        # draw of a long trace as a Python object.
        (first_src, two_src, far1, far2, seq, chase, noise, fp_load,
         dist1, dist2, strand_of, cross2, cross_pick, load_src, hot,
         hot_addr, rand_addr, stream_pick) = [
            a[start:stop].tolist() for a in drawn
        ]
        # A block consumes at most one pooled op per instruction.
        ops = iter(ops_pool[pool_i:pool_i + stop - start].tolist())
        for i in range(start, stop):
            j = i - start
            pc_col[i] = pc_slot * 4
            if period and pc_slot % period == period - 1:
                site = pc_slot // period
                # Loop pattern: off-direction once per `site_period`
                # visits.
                visit = site_count[site]
                site_count[site] = visit + 1
                pattern_dominant = bool(visit % site_period[site])
                if noise[j]:
                    pattern_dominant = not pattern_dominant
                tk = dominant_taken[site] == pattern_dominant
                taken_col[i] = tk
                tgt_slot = target_slot[site]
                target_col[i] = tgt_slot * 4
                # Branch tests one integer register of some strand.
                if first_src[j] and not far1[j]:
                    src1_col[i] = pick_src(rings_int[strand_of[j]], dist1[j])
                op_col[i] = _BRANCH
                pc_slot = tgt_slot if tk else (pc_slot + 1) % code_slots
                continue

            op = next(ops)
            pool_i += 1
            op_col[i] = op
            pc_slot = (pc_slot + 1) % code_slots
            k = strand_of[j]

            if op == _LOAD:
                fp_dest = fp_load[j]
                if chase[j] and last_load_dest[k] != NO_REG:
                    src1_col[i] = last_load_dest[k]
                    fp_dest = False  # chained pointers live in int registers
                    addr_col[i] = rand_addr[j]
                else:
                    if first_src[j] and not far1[j]:
                        src1_col[i] = pick_src(rings_int[k], dist1[j])
                    if seq[j]:
                        s = stream_pick[j]
                        stream_off[s] = (
                            stream_off[s] + _STREAM_STRIDES[s]
                        ) % stream_region
                        addr_col[i] = stream_base[s] + stream_off[s]
                    elif hot[j]:
                        addr_col[i] = hot_addr[j]
                    else:
                        addr_col[i] = rand_addr[j]
                if fp_dest:
                    dest = FP_BASE + (rr_fp % _FP_POOL)
                    rr_fp += 1
                    ring = rings_fp[k]
                    ring.append(dest)
                    if len(ring) > cap_fp:
                        ring.pop(0)
                else:
                    dest = rr_int % _INT_POOL
                    rr_int += 1
                    ring = rings_int[k]
                    ring.append(dest)
                    if len(ring) > cap_int:
                        ring.pop(0)
                    last_load_dest[k] = dest
                dest_col[i] = dest
                continue

            if op == _STORE:
                # Data source (class follows the suite) + integer address
                # base.
                if not far1[j]:
                    ring = rings_fp[k] if fp_load[j] else rings_int[k]
                    src1_col[i] = pick_src(ring, dist1[j])
                if not far2[j]:
                    k2 = (k + cross_pick[j]) % strands if cross2[j] else k
                    src2_col[i] = pick_src(rings_int[k2], dist2[j])
                if seq[j]:
                    s = stream_pick[j]
                    stream_off[s] = (
                        stream_off[s] + _STREAM_STRIDES[s]
                    ) % stream_region
                    addr_col[i] = stream_base[s] + stream_off[s]
                elif hot[j]:
                    addr_col[i] = hot_addr[j]
                else:
                    addr_col[i] = rand_addr[j]
                continue

            # Register-computation ops (IALU/IMUL/IDIV/FP*/NOP).
            is_fp = _FP_PRODUCER[op]
            ring = rings_fp[k] if is_fp else rings_int[k]
            if first_src[j]:
                if not far1[j]:
                    if (not is_fp and load_src[j]
                            and last_load_dest[k] != NO_REG):
                        src1_col[i] = last_load_dest[k]
                    else:
                        src1_col[i] = pick_src(ring, dist1[j])
                if two_src[j] and not far2[j]:
                    if cross2[j] and strands > 1:
                        k2 = (k + cross_pick[j]) % strands
                        ring2 = rings_fp[k2] if is_fp else rings_int[k2]
                    else:
                        ring2 = ring
                    src2_col[i] = pick_src(ring2, dist2[j])
            if op != _NOP:
                if is_fp:
                    dest = FP_BASE + (rr_fp % _FP_POOL)
                    rr_fp += 1
                    ring.append(dest)
                    if len(ring) > cap_fp:
                        ring.pop(0)
                else:
                    dest = rr_int % _INT_POOL
                    rr_int += 1
                    ring.append(dest)
                    if len(ring) > cap_int:
                        ring.pop(0)
                dest_col[i] = dest

    # Steady-state residency prefix (see _WARM_PREFIX_CAP): the whole
    # footprint for cache-resident programs, a capacity-sized slice for
    # memory-bound ones, then the stream regions and the hot set last so
    # they end up closest in the LRU stacks.
    warm_addrs: list[int] = list(
        range(0, min(footprint, _WARM_PREFIX_CAP), _WARM_STEP)
    )
    for base in stream_base:
        warm_addrs.extend(range(base, base + stream_region, _WARM_STEP))
    warm_addrs.extend(range(0, hot_bytes, _WARM_STEP))
    warm_pcs = list(range(0, code_slots * 4, 64))

    return Trace(
        warm_addrs=warm_addrs,
        warm_pcs=warm_pcs,
        name=profile.name,
        seed=seed,
        op=op_col,
        dest=dest_col,
        src1=src1_col,
        src2=src2_col,
        pc=pc_col,
        addr=addr_col,
        taken=taken_col,
        target=target_col,
    )

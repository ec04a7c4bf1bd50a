"""Delay propagation: how a one-off injected delay travels and decays.

Afzal, Hager and Wellein study how a single excess-runtime event on one
MPI rank propagates through the communication topology: in a ring of
eager sends, the delay travels one neighbour per iteration, forming a
diagonal wavefront in the (rank, iteration) plane, and is damped
wherever slack absorbs it.  This experiment reproduces that wavefront in
the simulator and asks the paper's question about it: *which clock modes
see the same propagation picture regardless of machine noise?*

Two runs of :class:`DelayRing` are compared per noise seed -- one with an
``injected_delay`` region carrying real work on ``(delay_rank,
delay_iter)``, one with the same region carrying zero units (so both
traces have identical event structure).  The per-rank, per-iteration
**deviation matrix** is the difference of the two runs' receive-complete
clocks:

* Under the deterministic logical modes the matrix is *bit-identical
  across noise seeds* and shows the undamped logical wavefront (logical
  clocks have no slack: every downstream rank inherits the full delay).
* Under ``tsc`` the matrix differs per seed and decays with distance as
  physical slack and noise absorb the delay.

The delayed trace also round-trips through the causal what-if engine:
``drop_region("injected_delay")`` on the delayed trace must reproduce
the baseline run's final clocks **bit for bit** under every replayable
mode -- the what-if replay's end-to-end ground truth
(:mod:`repro.causal.whatif`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.causal.whatif import REPLAYABLE_MODES, drop_region, run_whatif
from repro.clocks import timestamp_trace
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.machine.presets import small_test_cluster
from repro.measure import Measurement
from repro.measure.config import validate_mode
from repro.sim import (
    Compute,
    CostModel,
    Engine,
    Enter,
    KernelSpec,
    Leave,
    Program,
    Recv,
    Send,
)
from repro.sim.events import MPI_RECV

__all__ = ["DelayRing", "DelayPropResult", "run_delay_propagation"]


_STEP_KERNEL = KernelSpec.balanced(
    "ring-step", flops_per_unit=1e5, bytes_per_unit=0.0, memory_scope="none"
)
_DELAY_KERNEL = KernelSpec.balanced(
    "delay", flops_per_unit=1e5, bytes_per_unit=0.0, memory_scope="none"
)

#: region name of the injected delay (the ``drop_region`` target)
DELAY_REGION = "injected_delay"


class DelayRing(Program):
    """Eager nearest-neighbour ring with one injected one-off delay.

    Each iteration: fixed compute, an ``injected_delay`` region (real
    work only on ``(delay_rank, delay_iter)``; zero units -- but the same
    recorded events -- everywhere else), an eager send to the right
    neighbour and a blocking receive from the left.  With
    ``delay_units=0`` the program *is* its own baseline: identical event
    structure, no delay anywhere.
    """

    name = "delay-ring"
    phases = ("iterate",)

    def __init__(self, n_ranks: int = 4, iters: int = 10,
                 delay_rank: int = 0, delay_iter: int = 2,
                 delay_units: float = 0.0, step_units: float = 5.0):
        self.n_ranks = n_ranks
        self.threads_per_rank = 1
        self.iters = iters
        self.delay_rank = delay_rank
        self.delay_iter = delay_iter
        self.delay_units = delay_units
        self.step_units = step_units

    def make_rank(self, ctx):
        right = (ctx.rank + 1) % ctx.n_ranks
        left = (ctx.rank - 1) % ctx.n_ranks
        yield Enter("iterate")
        for it in range(self.iters):
            yield Compute(_STEP_KERNEL, self.step_units)
            yield Enter(DELAY_REGION)
            hit = ctx.rank == self.delay_rank and it == self.delay_iter
            yield Compute(_DELAY_KERNEL, self.delay_units if hit else 0.0)
            yield Leave(DELAY_REGION)
            yield Send(dest=right, tag=17, nbytes=64.0)
            yield Recv(source=left, tag=17)
        yield Leave("iterate")


def _run(mode: str, seed: int, delay_units: float, *, n_ranks: int,
         iters: int, delay_rank: int, delay_iter: int):
    cluster = small_test_cluster()
    app = DelayRing(n_ranks=n_ranks, iters=iters, delay_rank=delay_rank,
                    delay_iter=delay_iter, delay_units=delay_units)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(app, cluster, cost, measurement=Measurement(mode)).run().trace


def _recv_clocks(trace, mode: str) -> List[List[float]]:
    """Per rank, the clock at each iteration's receive completion."""
    tt = timestamp_trace(trace, mode)
    return [times[lc.etype == MPI_RECV].tolist()
            for lc, times in zip(trace.columns().locs, tt.times)]


@dataclass
class DelayPropResult:
    """Deviation matrices of one delay-propagation study."""

    mode: str
    seeds: Tuple[int, ...]
    delay_rank: int
    delay_iter: int
    #: seed -> matrix[rank][iter] = delayed recv clock - baseline recv clock
    deviation: Dict[int, List[List[float]]]
    #: bitwise equality of the deviation matrices across seeds
    seed_invariant: bool
    #: ``drop_region`` what-if == baseline finals, per replayable mode
    whatif_ok: Optional[Dict[str, bool]]

    def wavefront(self, seed: Optional[int] = None) -> List[Optional[int]]:
        """First iteration at which each rank sees the delay (or None)."""
        m = self.deviation[seed if seed is not None else self.seeds[0]]
        eps = 1e-12
        return [next((it for it, d in enumerate(row) if d > eps), None)
                for row in m]

    def report(self) -> str:
        out = [f"== delay propagation [{self.mode}] "
               f"(delay at rank {self.delay_rank}, iter {self.delay_iter}) =="]
        m = self.deviation[self.seeds[0]]
        iters = len(m[0]) if m else 0
        out.append("deviation matrix, seed "
                   f"{self.seeds[0]} (rank x iteration):")
        header = "  rank " + "".join(f"{it:>10}" for it in range(iters))
        out.append(header)
        for rank, row in enumerate(m):
            out.append(f"  {rank:>4} " + "".join(f"{d:>10.3g}" for d in row))
        out.append(f"wavefront arrival iterations: {self.wavefront()}")
        out.append("deviation matrix invariant across noise seeds "
                   f"{list(self.seeds)}: {self.seed_invariant}")
        if self.whatif_ok is not None:
            for mode, ok in sorted(self.whatif_ok.items()):
                out.append(f"what-if drop({DELAY_REGION}) == baseline "
                           f"[{mode}]: {ok}")
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "seeds": list(self.seeds),
            "delay_rank": self.delay_rank,
            "delay_iter": self.delay_iter,
            "seed_invariant": self.seed_invariant,
            "whatif_ok": self.whatif_ok,
            "wavefront": self.wavefront(),
            "deviation": {str(s): m for s, m in self.deviation.items()},
        }


def run_delay_propagation(
    mode: str = "lt1",
    seeds: Sequence[int] = (1, 2, 3),
    n_ranks: int = 4,
    iters: int = 10,
    delay_rank: int = 0,
    delay_iter: int = 2,
    delay_units: float = 200.0,
    check_whatif: bool = True,
) -> DelayPropResult:
    """Run the delayed/baseline pair per seed and difference their clocks.

    ``check_whatif`` additionally validates, for every replayable
    logical mode, that ``drop_region("injected_delay")`` applied to the
    delayed trace reproduces the baseline run's final clocks bit for
    bit (using the first seed's traces).
    """
    mode = validate_mode(mode)
    seeds = tuple(seeds)
    kw = dict(n_ranks=n_ranks, iters=iters, delay_rank=delay_rank,
              delay_iter=delay_iter)
    deviation: Dict[int, List[List[float]]] = {}
    whatif_ok: Optional[Dict[str, bool]] = None
    for k, seed in enumerate(seeds):
        delayed = _run(mode, seed, delay_units, **kw)
        baseline = _run(mode, seed, 0.0, **kw)
        dm = _recv_clocks(delayed, mode)
        bm = _recv_clocks(baseline, mode)
        deviation[seed] = [[d - b for d, b in zip(dr, br)]
                           for dr, br in zip(dm, bm)]
        obs.counter("experiments.delayprop.runs", mode=mode).add(2)
        if check_whatif and k == 0:
            whatif_ok = {}
            for wmode in REPLAYABLE_MODES:
                res = run_whatif(delayed, [drop_region(DELAY_REGION)], wmode)
                from repro.clocks.streaming import stream_clock_replay

                base_final = stream_clock_replay(baseline, wmode).final
                whatif_ok[wmode] = res.final == base_final
    first = deviation[seeds[0]]
    seed_invariant = all(deviation[s] == first for s in seeds[1:])
    return DelayPropResult(
        mode=mode,
        seeds=seeds,
        delay_rank=delay_rank,
        delay_iter=delay_iter,
        deviation=deviation,
        seed_invariant=seed_invariant,
        whatif_ok=whatif_ok,
    )

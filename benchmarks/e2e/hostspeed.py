"""Host-speed calibration of the end-to-end times.

The benchmark's host is shared: for stretches of a fraction of a second
to several minutes a core runs at about half speed, whatever this
program does. A repetition's wall time follows those stretches, so on
its own it drifts by a third over a few minutes.

To take the host out, every job runs with a timer that runs a fixed
reference computation every :data:`PERIOD_S`. The computation is
plain Python and shares no code with the simulator. Its mean wall time
over a repetition, against :data:`NOMINAL_S`, is the host's speed over
that repetition, and the repetition's wall-clock times are rescaled to
it; its mean CPU time does the same for CPU times. Each
sample is recorded as a ``hostspeed`` span of the repetition's
:class:`~benchmarks.e2e.tracing.Tracer`, which collects the samples of
forked pool workers too; in the traced pass the spans also keep the
samples out of every layer's self time.
"""

from __future__ import annotations

import functools
import signal
import statistics
from dataclasses import dataclass

from benchmarks.e2e.clock import now, thread_cpu
from benchmarks.e2e.tracing import Span, Tracer

SPAN = "hostspeed"

#: Seconds between samples while a job runs. A sample takes about 2 ms,
#: so sampling costs about 4% of a job's time; that time is taken out.
PERIOD_S = 0.05

#: Seconds one sample takes on an uncontended core of the 2-core host
#: the benchmark was defined on (a Xeon under KVM, Python 3.11.7): the
#: low end of 1,000 samples taken between sleeps. Calibrated times are
#: in seconds at that speed.
NOMINAL_S = 0.0019

#: Samples taken on the spot when no job ran long enough to be sampled,
#: as in a process that stops after set-up.
FALLBACK_SAMPLES = 8


def reference() -> tuple[float, float]:
    """Run the reference computation, dict reads and writes over 4,096
    keys, once; returns the (wall, CPU) seconds it took."""
    wall, cpu = now(), thread_cpu()
    table: dict[int, int] = {}
    acc = 0
    for i in range(10_000):
        k = (i * 2654435761) & 4095
        v = table.get(k, 0)
        table[k] = v + 1
        acc += v if v & 1 else -i
    return now() - wall, thread_cpu() - cpu


def install(tracer: Tracer) -> None:
    """Sample the host's speed while every job of this process, and of
    the pool workers it forks, runs."""
    from repro.exec.jobs import SimJob

    running = False

    def on_alarm(signum, frame) -> None:
        with tracer.span(SPAN) as attrs:
            attrs["cpu_s"] = reference()[1]
        # Armed again only now, so samples never nest and always leave
        # PERIOD_S to the job, however slowly the host runs them.
        if running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    job_run = SimJob.run

    @functools.wraps(job_run)
    def sampled_run(job):
        nonlocal running
        # A pool worker is a fork of this process: it inherits the
        # handler but not the timer, so each job starts its own.
        signal.signal(signal.SIGALRM, on_alarm)
        running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            return job_run(job)
        finally:
            running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            tracer.flush_worker()

    SimJob.run = sampled_run


@dataclass(frozen=True)
class Speed:
    """The host's speed over a repetition, as a share of nominal."""

    #: Judged by the samples' wall time: it rescales wall-clock times.
    wall: float
    #: Judged by their CPU time: it rescales CPU times. It stays higher
    #: than ``wall`` when the core is taken away rather than slowed.
    cpu: float
    #: Wall and CPU seconds the samples took inside the jobs.
    sampled_wall_s: float
    sampled_cpu_s: float


def measure(spans: list[Span]) -> Speed:
    """The host's speed from the ``hostspeed`` spans among ``spans``."""
    taken = [(s.duration, s.attrs["cpu_s"]) for s in spans if s.name == SPAN]
    walls, cpus = zip(*(taken or [reference()
                                  for _ in range(FALLBACK_SAMPLES)]))
    return Speed(
        wall=NOMINAL_S / statistics.mean(walls),
        cpu=NOMINAL_S / statistics.mean(cpus),
        sampled_wall_s=sum(w for w, _ in taken),
        sampled_cpu_s=sum(c for _, c in taken),
    )

"""Machine-speed calibration of the benchmark's timings.

The host this benchmark was written on runs other tenants' work on the
same cores and slows every program by up to 2x, for seconds to minutes
at a time.  Raw wall times of the same code then differ by 20-30 %
between runs, however long a run measures, because a slow stretch can
cover a whole run.  So every timed step is paired with calibration
samples: fixed tasks that call none of the code under test, timed right
before and right after the step.  The step's wall time is scaled by

    reference_s / (mean of the samples around it)

which is the time the step would take on the machine state in which a
sample takes reference_s.  reference_s is the median sample over 8
minutes of each workload on a 2-vCPU Intel Xeon KVM guest.  A program
change moves the scaled time by the same share as the raw one.

Contention slows numpy array code and interpreted Python by different
amounts, so each workload is calibrated with tasks of its own kind of
work: large complex-array numpy for the forge scans of construct-ladder
and of every set-up that builds records, that plus float formatting for
the CSV exports of grid-export, and 128-bit mpmath for the jets of
verify-ladder.  Over 8-minute logs of each workload, cut into windows
of 15-30 s, the quartile spread of the scaled pass time between windows
was 2-4 %, against 4-20 % raw.  Tasks of the other kinds did worse; on
construct-ladder they did worse than no scaling at all.

The samples run in a child process (this file run as a script), one at
a time while the benchmark waits, so that their arrays stay out of the
benchmark's peak_rss_mb.  The benchmark pins itself and its children to
one CPU, so the samples run where the operations run; unpinned, the
scaled wall_s of five runs spread 13-14 %, about as much as the raw one.
"""

import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np

_LINE = np.linspace(0.0, 1.0, 100_000)
_RADII = np.linspace(0.0, 1.9, 64)
_CIRCLE = np.exp(1j * np.linspace(0.0, 6.28, 8192))


def array_task():
    """log |z^8 - 1| + Re z^2 over 5e5 complex points, like kernels.h_log."""
    z = np.outer(_RADII, _CIRCLE).ravel()
    float((np.log(np.abs(z**8 - 1.0)) + (z * z).real).min())


def mixed_task():
    """A small numpy reduction, 2e4 lines of float text and mpmath."""
    float(np.log1p(np.exp(3.0 * _LINE)).sum())
    head = _LINE[:20_000]
    "\n".join("%.17g,%.17g" % (a, b) for a, b in zip(head, head))
    with mpmath.workprec(128):
        v = mpmath.mpf(1)
        for i in range(1, 3000):
            v = v * mpmath.mpf(i) / (v + 1)


def mpmath_task():
    """A 128-bit mpmath recurrence, interpreted like the jet rings."""
    with mpmath.workprec(128):
        v = mpmath.mpf(1)
        for i in range(1, 6000):
            v = v * mpmath.mpf(i) / (v + 1)


# the tasks of one sample and the sample's reference seconds: for the
# set-ups, whose time goes to the forge scans, and per workload for its passes
TASKS = {
    "set-up": ((array_task,), 0.021),
    "construct-ladder": ((array_task,), 0.021),
    "grid-export": ((mixed_task, array_task), 0.083),
    "verify-ladder": ((mpmath_task,), 0.045),
}


def scale(kind, seconds, samples):
    """`seconds` measured between `samples` of `kind`, at the reference speed."""
    return seconds * TASKS[kind][1] / statistics.mean(samples)


class Calibrator:
    """The child process that takes the samples; use it in a with block."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self, kind):
        """Wall seconds of one run of the tasks of `kind`."""
        self._child.stdin.write(kind + "\n")
        self._child.stdin.flush()
        return float(self._child.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._child.stdin.close()  # end of input ends the child
        except BrokenPipeError:  # it has ended already
            pass
        finally:
            self._child.wait()
            self._child.stdout.close()


def _serve():
    for tasks, _ in TASKS.values():  # first runs allocate and warm up
        for task in tasks:
            task()
    for line in sys.stdin:
        t0 = time.perf_counter()
        for task in TASKS[line.strip()][0]:
            task()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    _serve()

"""How fast the machine is while a run goes on, for scaling the run's times.

On a shared host the speed a process gets changes from one second to the
next and drifts over minutes: one fixed 2.7 s command of nk-table took
2.3 s to 3.7 s within a few minutes, CPU time moving with wall time, and
`python -c "import goebel"` took 150 ms in one hour and 230 ms in the next
while an interpreter loop ran as fast as before.  Raw times of two runs
therefore differ by how busy the host was, not by what the program did,
and interpreter start-up and computing drift apart.

The probe is a fixed reference command, run by the harness between the
workload's commands, while none of them runs: a fresh interpreter that
imports numpy, as every goebel command does, and then does a fixed amount
of interpreter, big-integer and memory-bound numpy work, the kinds of
work the commands do.  It times its own work and prints it; the rest of
its wall time is its start-up.  It runs none of goebel's code, so a change
to the program moves scaled times exactly as much as raw ones.

A run samples the probe after every command, so the samples spread over
the run like the commands do.  `scales()` gives, for
start-up and for work, REF over the mean sample: multiplying a time
measured during the run by it gives the time at the reference speed.

    python3 bench/speed.py        # one probe; prints the seconds its work took
"""

import statistics
import subprocess
import sys
import time

# the probe's typical start-up and work times on a 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6
REF_START_S = 0.22
REF_WORK_S = 0.13


def _reference_work() -> float:
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    big = 7 ** 6000
    for _ in range(240):
        big * big
    array = np.arange(2_000_000, dtype=np.int64)
    for _ in range(10):
        int((array * 3 + 1).sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Start-up and work times of the reference command over one run."""

    def __init__(self):
        self.start_s = []
        self.work_s = []

    def sample(self) -> None:
        start = time.perf_counter()
        out = subprocess.run([sys.executable, __file__], check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
        work = float(out.stdout)
        self.start_s.append(wall - work)
        self.work_s.append(work)

    def scales(self) -> tuple:
        """Factors from start-up and from work time measured in the run to the reference speed."""
        return REF_START_S / statistics.fmean(self.start_s), REF_WORK_S / statistics.fmean(self.work_s)


if __name__ == "__main__":
    print(repr(_reference_work()))

"""A fixed unit of reference work that tells how fast the host runs now.

The benchmark's host is a share of a machine it does not control: on it the
same operations ran up to twice as slow from one process, or one minute, to
the next, and CPU time stretched with wall time.  The worker therefore runs
`work` between operations, outside their timed spans, and scales each
operation's time by how long `work` took around it compared with
`NOMINAL_S`, the time it took when the benchmark was written.  `work` does
not use szego, so a change to szego moves the operations' times and not
the reference's.  It mixes the kinds of work szego does: Python complex
arithmetic (residue sums), small dense linear algebra and an FFT of the
length the oracle transforms at its acceptance grid.  (An FFT-only
reference for the oracle workload tracked it less well than this mix.)
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of `work` on the 2-vCPU x86-64 host where the benchmark was
# written, with one BLAS thread.  Fixed: it follows neither the host nor szego.
NOMINAL_S = 0.005
# A slowdown is the median of the samples within WINDOW places of the
# operation: one sample is a few milliseconds and jitters by half its time.
WINDOW = 5

_RNG = np.random.default_rng(0)
_POLES = [complex(0.13 * k - 2.0, -0.5 - 0.031 * k) for k in range(24)]
_MAT = _RNG.normal(size=(12, 12)) + 1j * _RNG.normal(size=(12, 12))
_VEC = _RNG.normal(size=2**15) + 1j * _RNG.normal(size=2**15)   # oracle's 2M at M = 2^14


def _residue_sum(poles: list[complex]) -> complex:
    acc = 0j
    for a in poles:
        for b in poles:
            acc += (a - b) / (a - b.conjugate())
    return acc


def work() -> complex:
    """About 1.5 ms of Python arithmetic, 1.5 ms of linear algebra, 2 ms of FFT."""
    acc = 0j
    for k in range(14):
        acc += _residue_sum(_POLES[k % 3:])
    for _ in range(6):
        acc += np.linalg.eigvals(_MAT)[0] + np.linalg.solve(_MAT, _MAT[0])[0]
    acc += np.fft.ifft(np.fft.fft(_VEC))[1]
    return acc


class HostSpeed:
    """Reference samples taken during a run, and the slowdowns they give."""

    def __init__(self):
        self.at: list[int] = []       # operations completed when the sample was taken
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, at: int = 0) -> None:
        cpu0, start = time.process_time(), time.perf_counter()
        work()
        self.wall.append(time.perf_counter() - start)
        self.cpu.append(time.process_time() - cpu0)
        self.at.append(at)

    def slowdown(self) -> float:
        """Wall-time slowdown over all samples against the nominal host."""
        return statistics.median(self.wall) / NOMINAL_S

    def slowdowns(self, n_ops: int) -> tuple[np.ndarray, np.ndarray]:
        """Wall and CPU slowdown of each of the first n_ops operations.

        Operation j is placed at the first sample taken after it ended, and
        gets the median of the samples within WINDOW places of that one.
        """
        at = np.asarray(self.at)
        place = np.minimum(np.searchsorted(at, np.arange(n_ops), side="right"),
                           at.size - 1)
        out = []
        for samples in (self.wall, self.cpu):
            smooth = np.array([statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1])
                               for i in range(at.size)])
            out.append(smooth[place] / NOMINAL_S)
        return out[0], out[1]

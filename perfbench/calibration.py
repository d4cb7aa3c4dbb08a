"""Host speed, from a fixed kernel timed between the measured steps.

The benchmark's host is a virtual machine on a shared host.  How fast its
cores run changes from minute to minute with the host's other load, and CPU
time changes with it: this is slower execution, not stolen time, which CPU
time already leaves out.  On a 2-core VM with nothing else running in it,
the CPU time of one ``mc_stream`` operation went from 0.87 s to 1.5-2.3 s
for over an hour, and interpreter-bound code slowed more than LAPACK-bound
code.

A kernel that never changes runs for :data:`SHARE` of each measured step's
CPU time, right after the step, so over a run it samples the host as the
steps do.  :data:`CHUNK_NOMINAL_S` over its mean chunk time is the run's
host speed; a CPU time times that speed is the CPU time on a host where a
chunk takes CHUNK_NOMINAL_S.  The kernel is about half interpreter work
(calls, a keyed sort) and half element-wise numpy on a 1.6 MB array, the
two kinds of work the workloads mix.  Of the kernels tried on that VM
while it was slow (interpreter loops, small batched LAPACK solves,
element-wise numpy, and pairs of them), this pair followed the workloads'
swings most closely: over windows of about 50 s, dividing by it cut the
spread of their operation times from 0.09-0.15 to 0.055-0.076 (standard
deviation of the log), as much as dividing one workload's times by
another's did.  It does not follow them fully; the rest stays in the
figures.

The kernel uses the interpreter and numpy only, never the library, so a
change to the library moves the measured steps and not the kernel.
"""

from __future__ import annotations

import resource
import time

import numpy as np

#: CPU seconds one chunk takes at the reference host speed.
CHUNK_NOMINAL_S = 1e-3
#: The kernel runs for this share of each measured step's CPU time.
SHARE = 0.25

#: The kernel allocates nothing large: a fresh 1.6 MB temporary costs page
#: faults or not depending on what the process allocated before (2.0 ms in
#: a process that never held a large array, 0.5 ms after one had).
_VALUES = np.random.default_rng(0).standard_normal(200_000)
_BUFFER = np.empty_like(_VALUES)
_PAIRS = [(index, str(index)) for index in range(800)]


def cpu_seconds() -> float:
    """CPU seconds of this process's threads and its waited-for children.

    Worker processes are joined when the call that started them returns,
    so an operation's CPU time is the difference of two readings around it.
    On a virtual machine with steal-time accounting, time the host gives
    this machine's cores to others stays out of it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _step(total, weight):
    return total * weight + 1.0


def _name(pair):
    return pair[1]


def _chunk():
    total = 0.0
    for __ in range(2400):
        total = _step(total, 0.5)
    ordered = sorted(_PAIRS, key=_name)
    np.multiply(_VALUES, 1.5, out=_BUFFER)
    np.add(_BUFFER, 2.0, out=_BUFFER)
    np.abs(_BUFFER, out=_BUFFER)
    return total + ordered[0][0] + float(_BUFFER.sum())


class HostSpeed:
    """Kernel samples accumulated over a run."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, step_seconds):
        """Run the kernel for SHARE of a step that took ``step_seconds``
        (at least one chunk)."""
        start = cpu_seconds()
        while True:
            _chunk()
            self.chunks += 1
            spent = cpu_seconds() - start
            if spent >= SHARE * step_seconds:
                self.seconds += spent
                return

    def speed(self) -> float:
        """Host speed over the run so far: below 1 on a slower host."""
        return CHUNK_NOMINAL_S * self.chunks / self.seconds

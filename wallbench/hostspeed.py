"""Host-speed reference that the benchmark's wall times are scaled by.

On a shared host the same Python code runs up to 2x slower, in
stretches that change within seconds. Back-to-back routing children
measured a 0.28–0.62 s timed phase on a 2-core x86_64 container, and
process CPU time tracked wall time exactly: the CPU itself runs slower.
Run medians alone spread by 25–35% between runs.

So each child times this fixed kernel between its units of work: a few
times around set-up, and between dispatches, at most every
``EVERY_S``, during the timed phase. It reports its wall times scaled
by ``REFERENCE_S / mean sample``: the time the work would have taken
with the host at the reference speed. Samples are never inside a timed
dispatch, and their time is taken out of the timed phase. The kernel is
frozen benchmark code, so a change to the program moves the scaled
figures exactly as it moves the raw ones. The report keeps the raw
figures too.

The kernel is small, compute-bound work that stays in the core's
caches: dict lookups over a 2048-entry table, then small integer and
bytes work. On a 2-core x86_64 container its time tracked the timed
phase of routing and cohorts children with a log-log slope of 1.0 and
a correlation of 0.98, where the same kernel timed once before and
once after the child gave 0.63–0.83. A kernel over a 200k-entry table,
which waits on memory, slowed less than the program did (slope 1.5).
"""

from __future__ import annotations

import math
import random
import time
from typing import List

#: Kernel wall time that defines the reference speed: about its median
#: on the host above. It fixes the unit only.
REFERENCE_S = 0.0040

#: Least wall time between two samples in the timed phase.
EVERY_S = 0.05

#: Samples taken just before and just after set-up, each.
SETUP_SAMPLES = 3

#: Table entries, lookups, and integer/bytes steps per sample.
ENTRIES = 2048
PROBES = 4000
STEPS = 800


class Reference:
    """The reference kernel, the table it reads, and its samples."""

    def __init__(self) -> None:
        self._table = {i: (i * 7).to_bytes(8, "big") for i in range(ENTRIES)}
        rng = random.Random(1)
        self._keys = [rng.randrange(ENTRIES) for _ in range(PROBES)]
        #: Wall seconds of every sample, in the order taken.
        self.samples: List[float] = []
        self._last = -math.inf

    def _kernel(self) -> int:
        table = self._table
        acc = 0
        for k in self._keys:
            acc ^= int.from_bytes(table[k], "big")
        counts = {}
        parts = []
        for i in range(STEPS):
            slot = (i * 2654435761) & 0x3FF
            counts[slot] = counts.get(slot, 0) + i
            acc ^= pow(i | 1, 257, 0xFFFFFFFFFFFFFFC5)
            parts.append(i.to_bytes(4, "big"))
        return acc ^ len(b"".join(parts)) ^ len(counts)

    def due(self) -> bool:
        """Whether ``EVERY_S`` has passed since the last sample ended."""
        return time.perf_counter() - self._last >= EVERY_S

    def sample(self) -> float:
        """Run the kernel once; record and return its wall seconds."""
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        return self._last - start

"""Machine-speed calibration of the benchmark's time metrics.

On a shared machine the time a fixed piece of work takes drifts by up
to a factor of two over tens of seconds, as other tenants come and go;
a per-run median cannot remove a slowdown that lasts the whole run.
The benchmark therefore times a fixed reference task between
operations and scales every time it reports by ``REFERENCE_MS`` over
the reference task's time just before.  A time is then in milliseconds
of a machine on which the reference task takes ``REFERENCE_MS``: a
slowdown of the whole machine cancels, a slowdown of the program does
not, because the reference task never calls the program.

The task uses only the standard library: indexed reads from a SQLite
file larger than SQLite's page cache, each row handled in Python, which
is what the program spends its time in.  On a 2-vCPU Intel Xeon VM,
over four minutes of varying outside load, the latency of lineage-scan
queries, synthetic ingests and genes2kegg ingests each moved with this
task's time to the power 0.98-1.02 (correlation 0.86-0.88, 2-second
groups).  Pure-Python and in-memory SQLite tasks moved with powers of
0.5-0.7 only, so scaling by them over-corrected.

The raw wall-clock figures stay on the detail line of ``run.py``.
"""

from __future__ import annotations

import gc
import os
import random
import sqlite3
import statistics
import time
from typing import List

#: Reference task time, ms: about its fastest on the VM above.  Any
#: constant would do: it only sets the scale the scaled times are read on.
REFERENCE_MS = 3.2
#: Reference tasks per calibration; the median is taken.
REPEATS = 3
#: Seconds of measured operations between two calibrations.
INTERVAL_S = 0.5
#: Rows of the reference database (~10 MB) and its distinct keys.
ROWS = 200_000
KEYS = 5_000
#: Indexed lookups per reference task, ~40 rows each.
LOOKUPS = 40
#: Untimed tasks that warm the page caches before the first calibration.
WARMUP = 10


class Calibration:
    """The reference task, and the time scale it gives."""

    def __init__(self, workdir: str) -> None:
        path = os.path.join(workdir, "calibration.db")
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE r (a INTEGER PRIMARY KEY, k INTEGER, v TEXT)"
        )
        self._conn.execute("CREATE INDEX ix_k ON r (k)")
        with self._conn:
            self._conn.executemany(
                "INSERT INTO r VALUES (?, ?, ?)",
                ((None, i % KEYS, "x" * 40) for i in range(ROWS)),
            )
        self._keys = random.Random(0)
        for _ in range(WARMUP):
            self._task()
        #: Every reference-task median measured, seconds.
        self.samples: List[float] = []
        self.factor = 1.0
        self._at = 0.0

    def _task(self) -> int:
        # The collector stays off: a collection here would scan the
        # program's heap, and the task must not depend on the program.
        gc.disable()
        try:
            total = 0
            for _ in range(LOOKUPS):
                key = self._keys.randrange(KEYS)
                for _a, _k, text in self._conn.execute(
                    "SELECT a, k, v FROM r WHERE k = ?", (key,)
                ):
                    total += len(text)
            return total
        finally:
            gc.enable()

    def measure(self) -> float:
        """Time the reference task; returns and keeps the scale factor."""
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            self._task()
            times.append(time.perf_counter() - started)
        sample = statistics.median(times)
        self.samples.append(sample)
        self.factor = REFERENCE_MS / 1000.0 / sample
        self._at = time.perf_counter()
        return self.factor

    def tick(self) -> float:
        """The current scale factor, measured again every ``INTERVAL_S``."""
        if time.perf_counter() - self._at >= INTERVAL_S:
            return self.measure()
        return self.factor

    def close(self) -> None:
        self._conn.close()

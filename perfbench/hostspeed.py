"""Host speed reference: wall times scaled to a fixed reference speed.

The machine is shared, and its speed shifts between regimes up to 1.7x
apart that last from seconds to minutes (README.md). A probe, a fixed
exact elimination of 300 sparse integer rows of width 256 into Fraction
pivots, runs after roughly every second of job time. Each job's wall
time is scaled by REF_PROBE_S over the mean of the probe times just
before and just after it. The probe is this file's own frozen code, the
same kind of work as diffpi's RowSpan, so no change to diffpi can move
it.
"""

import random
import time
from fractions import Fraction

REF_PROBE_S = 0.17  # probe time at the reference speed, by definition


def _rows():
    """300 rows, each the sum of two of 60 sparse integer basis rows."""
    rng = random.Random(3)
    basis = [{j: Fraction(rng.randint(-3, 3) or 1)
              for j in rng.sample(range(256), 8)} for _ in range(60)]
    rows = []
    for _ in range(300):
        a, b = rng.sample(basis, 2)
        c = rng.randint(-2, 2) or 1
        row = dict(a)
        for j, v in b.items():
            nv = row.get(j, 0) + c * v
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)
        rows.append(row)
    return rows


def probe(rows) -> int:
    """Echelon form of the probe rows; returns the rank (60)."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            f = row[lead]
            for j, v in piv.items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        if row:
            lead = min(row)
            inv = 1 / row[lead]
            pivots[lead] = {j: v * inv for j, v in row.items()}
    return len(pivots)


class Clock:
    """Scales recorded wall times by the probes that bracket them.

    record() returns a slot [raw, scaled]; scaled is filled in at the
    next probe, which runs once a second of raw time has been recorded,
    or on flush().
    """

    INTERVAL_S = 1.0

    def __init__(self):
        self._rows = _rows()
        self.last = self._probe_s()
        self._pending = []
        self._pending_s = 0.0

    def _probe_s(self) -> float:
        t = time.perf_counter()
        probe(self._rows)
        return time.perf_counter() - t

    def record(self, raw: float) -> list:
        slot = [raw, None]
        self._pending.append(slot)
        self._pending_s += raw
        if self._pending_s >= self.INTERVAL_S:
            self.flush()
        return slot

    def flush(self) -> None:
        if not self._pending:
            return
        now = self._probe_s()
        scale = REF_PROBE_S / ((self.last + now) / 2)
        for slot in self._pending:
            slot[1] = slot[0] * scale
        self.last = now
        self._pending = []
        self._pending_s = 0.0

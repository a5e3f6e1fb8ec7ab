"""``RateTimeline.append`` of commit ``85b9eee`` — the oracle.

Until then the scalar event loop appended every event's interval to each
active flow's :class:`~repro.net.fluid.RateTimeline`, and ``append`` held
the rules a timeline is built by.  Both loops now log a row only when a
flow's rate changes, it retires or the run stops, and
:class:`~repro.net.fluid._TimelineTable` reduces that log by the same
rules; ``tests/test_flow_table.py`` holds the reduction to this method,
moved here verbatim.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.net.fluid import _TIME_EPS, RateSegment, RateTimeline


class AppendedTimeline(RateTimeline):
    """An empty :class:`RateTimeline` that intervals are appended to."""

    def __init__(self) -> None:
        super().__init__([], [], [])
        self.segments = []

    def append(self, start: float, end: float, rate_bps: float) -> None:
        """Record one constant-rate interval (zero-length intervals ignored).

        Raises:
            SimulationError: if ``start`` precedes the last recorded segment
                (segments must arrive in chronological order).
        """
        if end - start <= _TIME_EPS:
            return
        if self._starts and start < self._starts[-1] - _TIME_EPS:
            raise SimulationError(
                "rate segments must be appended in chronological order"
            )
        # Merge with the previous segment if the rate did not change.
        if (
            self.segments
            and abs(self.segments[-1].end - start) <= _TIME_EPS
            and self.segments[-1].rate_bps == rate_bps
        ):
            self.segments[-1].end = end
            return
        self.segments.append(RateSegment(start, end, rate_bps))
        self._starts.append(start)

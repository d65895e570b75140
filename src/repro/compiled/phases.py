"""Working-set identification over connection traces.

Section 2 of the paper frames program communication as a sequence of
working sets ``W(1) .. W(p)`` trading off the number of phases ``p``
against the per-phase multiplexing degree ``k_j``.
:func:`working_set_series` gives the sliding-window working-set size over
a trace, the quantity whose plateaus reveal phase structure (the locality
analysis of the papers cited in Section 3.1).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ConfigurationError

__all__ = ["working_set_series"]


def working_set_series(
    trace: Sequence[tuple[int, int]], window: int
) -> list[int]:
    """Distinct connections inside each length-``window`` sliding window.

    ``series[i]`` counts the distinct connections among
    ``trace[i : i + window]``; the list has ``len(trace) - window + 1``
    entries (empty if the trace is shorter than the window).
    """
    if window < 1:
        raise ConfigurationError("window must be at least 1")
    if len(trace) < window:
        return []
    counts: dict[tuple[int, int], int] = {}
    for item in trace[:window]:
        counts[item] = counts.get(item, 0) + 1
    series = [len(counts)]
    for i in range(window, len(trace)):
        incoming = trace[i]
        outgoing = trace[i - window]
        counts[incoming] = counts.get(incoming, 0) + 1
        counts[outgoing] -= 1
        if counts[outgoing] == 0:
            del counts[outgoing]
        series.append(len(counts))
    return series


#!/usr/bin/env python
"""Head-to-head comparison of the four switching schemes (mini Figure 4).

Runs one traffic pattern across wormhole routing, circuit switching,
dynamic TDM, and preloaded TDM at several message sizes, printing an
efficiency table like one panel of the paper's Figure 4.

Run:  python examples/scheme_comparison.py [pattern]
      pattern in {scatter, random-mesh, ordered-mesh, two-phase}
"""

import sys

from repro import PAPER_PARAMS
from repro.experiments.common import FIGURE4_SCHEMES, measure
from repro.experiments.figure4 import figure4_patterns
from repro.metrics.report import format_series
from repro.networks.registry import RunSpec, build_network


def main(pattern_name: str = "random-mesh") -> None:
    params = PAPER_PARAMS.with_overrides(n_ports=32)
    sizes = (16, 64, 256, 1024)

    patterns = figure4_patterns(params, mesh_rounds=2, nn_rounds=4)
    if pattern_name not in patterns:
        raise SystemExit(f"unknown pattern {pattern_name!r}; pick from {list(patterns)}")

    series: dict[str, list[float]] = {}
    for scheme_name in FIGURE4_SCHEMES:
        series[scheme_name] = [
            measure(
                patterns[pattern_name](size),
                build_network(RunSpec(scheme_name, params)),
            ).efficiency
            for size in sizes
        ]

    print(
        format_series(
            "bytes",
            list(sizes),
            series,
            title=f"Bandwidth efficiency — {pattern_name} on {params.n_ports} ports",
        )
    )
    best_at_64 = max(series, key=lambda s: series[s][sizes.index(64)])
    print(f"best scheme at 64 bytes: {best_at_64}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "random-mesh")

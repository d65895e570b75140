"""Picklable cell runners for the execution-engine tests.

Pool workers unpickle runner functions by module-qualified name, so every
runner the pooled tests use must live at module level in an importable
module — test-class methods and closures cannot cross the process
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, frozen=True)
class ValueCell:
    value: int


def square(cell: ValueCell) -> int:
    return cell.value * cell.value


#: the ad-hoc scheme name the pollution runner registers
POLLUTION_SCHEME = "exec-test-pollution"


def pollute_and_report(cell: ValueCell) -> dict:
    """Observe, then dirty, every known piece of process-global state.

    Returns what was dirty on entry: with working worker resets a reused
    worker must report a clean slate for every cell, no matter what the
    previous cell did to the scheme registry or the shared null tracer.
    """
    from repro.networks import registry
    from repro.sim.trace import NULL_TRACER, Tracer

    observed = {
        "value": cell.value,
        "scheme_leaked": POLLUTION_SCHEME in registry._ALIAS_TO_NAME,
        "tracer_enabled": bool(NULL_TRACER.enabled),
        "tracer_events": len(NULL_TRACER),
    }
    if POLLUTION_SCHEME not in registry._ALIAS_TO_NAME:
        info = registry.get_scheme("wormhole")
        registry.register_scheme(
            POLLUTION_SCHEME, info.factory, capabilities=info.capabilities
        )
    NULL_TRACER.enabled = True
    # the base-class record bypasses _NullTracer's no-op override, planting
    # a real event the next cell would see if resets ever regressed
    Tracer.record(NULL_TRACER, 0, "exec-test-pollution")
    return observed

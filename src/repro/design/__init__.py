"""Design-space studio: device scans, tolerance Monte-Carlo, feasibility maps.

The paper's single-electron devices only work inside narrow windows of
capacitance, resistance, temperature, and background charge.  This package
turns the reproduction into a *design tool*: declare a
:class:`~repro.design.spec.DesignSpec` (base device, swept
geometry/environment axes, constraint set, optional component tolerances),
run it through any registered engine with :class:`~repro.design.scan.DeviceScan`,
and read off a :class:`~repro.design.feasibility.FeasibilityMap` of
per-point verdicts, robustness margins, and tolerance-MC yield.

Quick start::

    from repro.design import DesignSpec, DeviceScan

    spec = DesignSpec.from_dict({
        "name": "demo",
        "axes": [{"parameter": "gate_capacitance",
                  "start": 5e-19, "stop": 5e-18, "points": 21,
                  "spacing": "log"}],
        "constraints": [{"type": "gain", "threshold": 1.0},
                        {"type": "on_off_ratio", "threshold": 10.0}],
    })
    feasibility = DeviceScan(spec).run()
    print(feasibility.counts(), feasibility.feasible_fraction)

Scans shard into content-hashed checkpoint chunks through the result cache
(resume + dedup), degrade per-point under a
:class:`~repro.resilience.policy.FailurePolicy`, and are reproducible for
any worker count thanks to SHA-256-derived per-point and per-element seed
streams.  See ``docs/design.md``.
"""

from .constraints import (
    CONSTRAINT_TYPES,
    Constraint,
    ConstraintVerdict,
    DesignPoint,
    build_constraint,
    build_constraints,
)
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityMap,
    merge_chunk_payloads,
)
from .scan import (
    DesignChunk,
    DeviceScan,
    YieldReport,
    analyze_yield,
)
from .spec import (
    DEVICE_PARAMETERS,
    ENVIRONMENT_PARAMETERS,
    SCAN_PARAMETERS,
    DesignSpec,
    DeviceAxis,
)
from .tolerance import (
    ComponentDeviation,
    ToleranceModel,
)

__all__ = [
    "CONSTRAINT_TYPES",
    "ComponentDeviation",
    "Constraint",
    "ConstraintVerdict",
    "DEVICE_PARAMETERS",
    "DesignChunk",
    "DesignPoint",
    "DesignSpec",
    "DeviceAxis",
    "DeviceScan",
    "ENVIRONMENT_PARAMETERS",
    "FEASIBLE",
    "FeasibilityMap",
    "INFEASIBLE",
    "SCAN_PARAMETERS",
    "ToleranceModel",
    "UNKNOWN",
    "YieldReport",
    "analyze_yield",
    "build_constraint",
    "build_constraints",
    "merge_chunk_payloads",
]

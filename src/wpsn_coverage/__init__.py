"""Coverage planning for RF-powered backscatter sensor networks.

Computes activation ranges from a free-space link budget, the number of
RF sources needed to cover an event field with non-overlapping ranges,
concrete grid placements with interference checks, and the parameter
sweeps behind the report figures.

Public names load their module on first use (PEP 562), so the scalar
commands and the figure sweeps never import numpy: only the array layer
(`kernels`, `deployment`) needs it.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "quantities": (
        "SPEED_OF_LIGHT", "Area", "Frequency", "Gain", "Length", "Power", "Resistance",
        "ValidationError", "Voltage", "dbi_to_linear", "wavelength",
    ),
    "link_budget": (
        "RadioParams", "induced_voltage", "max_range", "power_from_voltage", "received_power",
    ),
    "coverage": (
        "EventField", "SourceCount", "Strategy", "max_area", "required_power", "source_count",
        "source_count_from_range",
    ),
    "deployment": (
        "CoverageReport", "Deployment", "InterferenceReport", "NodeField", "coverage_report",
        "detect_interference", "monte_carlo_coverage", "place_sources", "scatter_nodes",
    ),
    "sweep_report": (
        "PlotOptions", "SweepTable", "render_csv", "render_svg", "write_csv", "write_svg_plot",
    ),
    "scenario": ("Scenario", "load_scenario", "parse_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

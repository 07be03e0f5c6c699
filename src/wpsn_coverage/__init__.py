"""Coverage planning for RF-powered backscatter sensor networks.

Computes activation ranges from a free-space link budget, the number of
RF sources needed to cover an event field with non-overlapping ranges,
concrete grid placements with interference checks, and the parameter
sweeps behind the report figures.
"""

from .quantities import (
    SPEED_OF_LIGHT,
    Area,
    Frequency,
    Gain,
    Length,
    Power,
    Resistance,
    ValidationError,
    Voltage,
    dbi_to_linear,
    linear_to_dbi,
    wavelength,
)
from .link_budget import (
    LinkResult,
    RadioParams,
    induced_voltage,
    link_at,
    max_range,
    power_from_voltage,
    received_power,
)
from .coverage import (
    EventField,
    SourceCount,
    max_area,
    required_power,
    source_count,
    source_count_from_range,
)
from .deployment import (
    CoverageReport,
    Deployment,
    InterferenceReport,
    NodeField,
    Strategy,
    coverage_report,
    detect_interference,
    monte_carlo_coverage,
    place_sources,
    scatter_nodes,
)
from .sweep_report import (
    PlotOptions,
    SweepTable,
    render_csv,
    render_svg,
    write_csv,
    write_svg_plot,
)
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from .kernels import HAVE_COMPILED

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "Area",
    "CoverageReport",
    "Deployment",
    "EventField",
    "Frequency",
    "Gain",
    "HAVE_COMPILED",
    "InterferenceReport",
    "Length",
    "LinkResult",
    "NodeField",
    "PlotOptions",
    "Power",
    "RadioParams",
    "Resistance",
    "Scenario",
    "SourceCount",
    "Strategy",
    "SweepTable",
    "ValidationError",
    "Voltage",
    "coverage_report",
    "dbi_to_linear",
    "detect_interference",
    "induced_voltage",
    "linear_to_dbi",
    "link_at",
    "load_scenario",
    "max_area",
    "max_range",
    "monte_carlo_coverage",
    "parse_scenario",
    "place_sources",
    "power_from_voltage",
    "received_power",
    "render_csv",
    "render_svg",
    "required_power",
    "scatter_nodes",
    "serialize_scenario",
    "source_count",
    "source_count_from_range",
    "wavelength",
    "write_csv",
    "write_svg_plot",
]

"""End-user tools: the automatic mapper, report/diagram rendering, CLI."""

from .diagram import grid_diagram, mapping_diagram, task_graph
from .mapper import MappingPlan, auto_map, measure
from .plots import bar_chart, xy_plot
from .persist import (
    load_chain,
    load_mapping,
    save_chain,
    save_mapping,
    save_plan_summary,
)
from .report import format_mapping, render_table

__all__ = [
    "MappingPlan",
    "auto_map",
    "measure",
    "render_table",
    "format_mapping",
    "task_graph",
    "mapping_diagram",
    "grid_diagram",
    "save_mapping",
    "load_mapping",
    "save_chain",
    "load_chain",
    "save_plan_summary",
    "xy_plot",
    "bar_chart",
]

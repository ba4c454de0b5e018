"""Post-processing: assimilate perflogs programmatically (Principle 6).

The paper's framework parses ReFrame perflogs into a pandas DataFrame,
concatenates logs from isolated systems, filters them through a YAML
configuration and renders Bokeh bar charts.  pandas and Bokeh are not
available here, so this subpackage provides the same pipeline on its own
column-store :class:`~repro.postprocess.dataframe.DataFrame`, an SVG/ASCII
chart renderer, and the ``repro-plot`` CLI driven by the same style of
YAML config.
"""

from repro.postprocess.dataframe import DataFrame, DataFrameError
from repro.postprocess.perflog_reader import (
    parse_block,
    read_perflog,
    read_perflogs,
)
from repro.postprocess.filters import apply_filters, FilterError
from repro.postprocess.plotting import (
    bar_chart_ascii,
    bar_chart_svg,
    heatmap_ascii,
    line_chart_svg,
)

__all__ = [
    "DataFrame",
    "DataFrameError",
    "parse_block",
    "read_perflog",
    "read_perflogs",
    "apply_filters",
    "FilterError",
    "bar_chart_ascii",
    "bar_chart_svg",
    "heatmap_ascii",
    "line_chart_svg",
]

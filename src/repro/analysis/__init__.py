"""Paper analysis: ratio tables, the §VII-B result record, report rendering."""

from repro.analysis.experiments import DistributionOutcome
from repro.analysis.ratios import (
    LimitingFactor,
    classify_levels,
    limiting_factor,
    table1_row,
    table2_row,
)
from repro.analysis.ascii_charts import boxplot, grouped_hbar
from repro.analysis.utilization import UtilizationReport, cluster_utilization
from repro.analysis.reporting import (
    format_table,
    render_fig2,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table4,
)

__all__ = [
    "DistributionOutcome",
    "LimitingFactor",
    "classify_levels",
    "limiting_factor",
    "table1_row",
    "table2_row",
    "format_table",
    "UtilizationReport",
    "cluster_utilization",
    "grouped_hbar",
    "boxplot",
    "render_table1",
    "render_table2",
    "render_table4",
    "render_fig2",
    "render_fig3",
    "render_fig4",
]

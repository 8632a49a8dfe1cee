"""Context-stratified Mendelian randomization toolkit.

Per-context instrumental-variable estimation from individual-level or
summary data, heterogeneity testing with first-order and modified
second-order weights, meta-regression of context estimates on mean
exposure, and a seeded Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .datamodel import (
    ColumnMap,
    Dataset,
    load_csv,
    partition_by_context,
    summarize_context,
)
from .harness import (
    CellResult,
    ExperimentPlan,
    default_plan,
    emit_table,
    run_experiment,
)
from .heterogeneity import (
    HeterogeneityResult,
    q_first_order,
    q_modified_second_order,
)
from .ivcore import ContextResult, ContextTable, PooledEstimate, context_iv, ivw_pool
from .metareg import MetaRegResult, meta_regress, trend_test
from .numerics import chi_square_sf, normal_sf, wls_solve
from .regress import AssocEstimate, design, fit_linear, fit_logistic
from .report import (
    AnalysisOptions,
    AnalysisReport,
    analyze_dataset,
    analyze_summary_results,
    load_summary_csv,
    plot_data,
    render_text,
    report_from_json,
    report_to_json,
)
from .simulate import (
    EffectFunction,
    SimScenario,
    effect_value,
    generate_dataset,
    instrument_strength,
)

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "AssocEstimate",
    "CellResult",
    "ColumnMap",
    "ContextResult",
    "ContextTable",
    "Dataset",
    "EffectFunction",
    "ExperimentPlan",
    "HeterogeneityResult",
    "MetaRegResult",
    "PooledEstimate",
    "SimScenario",
    "analyze_dataset",
    "analyze_summary_results",
    "chi_square_sf",
    "context_iv",
    "default_plan",
    "design",
    "effect_value",
    "emit_table",
    "fit_linear",
    "fit_logistic",
    "generate_dataset",
    "instrument_strength",
    "ivw_pool",
    "load_csv",
    "load_summary_csv",
    "meta_regress",
    "normal_sf",
    "partition_by_context",
    "plot_data",
    "q_first_order",
    "q_modified_second_order",
    "render_text",
    "report_from_json",
    "report_to_json",
    "run_experiment",
    "summarize_context",
    "trend_test",
    "wls_solve",
]

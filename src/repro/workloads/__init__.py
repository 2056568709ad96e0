"""Workload substrate: the synthetic-app generator and the six
paper-app profiles."""

from repro.workloads.appgen import AppSpec, GeneratedApp, UiScript, generate_app
from repro.workloads.diffstream import (
    MUTATION_KINDS,
    Mutation,
    diff_stream,
    mutate_app,
)
from repro.workloads.oracle import (
    Mismatch,
    OracleResult,
    check_oat,
    default_configs,
    reference_results,
    verify_app,
)
from repro.workloads.apps import (
    APP_NAMES,
    PAPER_BASELINE_MB,
    app_spec,
    default_suite,
    generate_suite,
)

__all__ = [
    "APP_NAMES",
    "AppSpec",
    "GeneratedApp",
    "MUTATION_KINDS",
    "Mismatch",
    "Mutation",
    "OracleResult",
    "PAPER_BASELINE_MB",
    "UiScript",
    "app_spec",
    "check_oat",
    "default_suite",
    "diff_stream",
    "generate_app",
    "default_configs",
    "generate_suite",
    "mutate_app",
    "reference_results",
    "verify_app",
]

"""Calibro core: the paper's contribution.

* CTO — :mod:`repro.core.patterns` (ART patterns + thunk cache, §3.1)
* LTBO.1 — :mod:`repro.core.metadata` (compile-time records, §3.2)
* LTBO.2 — :mod:`repro.core.candidates` (§3.3.1),
  :mod:`repro.core.detect` (§3.3.2), :mod:`repro.core.outline` (§3.3.3),
  :mod:`repro.core.patch` (§3.3.4)
* PlOpti — :mod:`repro.core.parallel` (§3.4.1)
* HfOpti — :mod:`repro.core.hotfilter` (§3.4.2)
* The Fig. 5 pipeline — :mod:`repro.core.pipeline`
* Global function merging — :mod:`repro.core.merge` (post-outlining)
* The Fig. 2 benefit model — :mod:`repro.core.benefit`

Attributes resolve lazily (PEP 562): the compiler substrate imports
``repro.core.metadata`` while ``repro.core.candidates`` imports the
compiler back, so eager package-level imports would cycle.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "BenefitModel": "repro.core.benefit",
    "MergeBenefit": "repro.core.benefit",
    "estimate_reduction_ratio": "repro.core.benefit",
    "evaluate": "repro.core.benefit",
    "evaluate_merge": "repro.core.benefit",
    "MergePlan": "repro.core.merge",
    "MergeResult": "repro.core.merge",
    "MergeStats": "repro.core.merge",
    "merge_functions": "repro.core.merge",
    "merge_node_key": "repro.core.merge",
    "CandidateSelection": "repro.core.candidates",
    "select_candidates": "repro.core.candidates",
    "CalibroError": "repro.core.errors",
    "ConfigError": "repro.core.errors",
    "LinkError": "repro.core.errors",
    "OutlineError": "repro.core.errors",
    "ServiceError": "repro.core.errors",
    "HotFunctionFilter": "repro.core.hotfilter",
    "DataExtent": "repro.core.metadata",
    "MethodMetadata": "repro.core.metadata",
    "PcRelativeRef": "repro.core.metadata",
    "SlowpathExtent": "repro.core.metadata",
    "GroupOutlineResult": "repro.core.outline",
    "OutlineStats": "repro.core.outline",
    "OutlinedFunction": "repro.core.outline",
    "outline_group": "repro.core.outline",
    "ParallelOutlineResult": "repro.core.parallel",
    "outline_partitioned": "repro.core.parallel",
    "PatchError": "repro.core.patch",
    "patch_pc_relative": "repro.core.patch",
    "ThunkCache": "repro.core.patterns",
    "count_pattern_occurrences": "repro.core.patterns",
    "CalibroBuild": "repro.core.pipeline",
    "CalibroConfig": "repro.core.pipeline",
    "SUMMARY_KEYS": "repro.core.pipeline",
    "SUMMARY_SCHEMA_VERSION": "repro.core.pipeline",
    "build_app": "repro.core.pipeline",
    "outline_methods": "repro.core.pipeline",
    "compile_stage": "repro.core.staged",
    "link_stage": "repro.core.staged",
    "outline_stage": "repro.core.staged",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core.benefit import (
        BenefitModel,
        MergeBenefit,
        estimate_reduction_ratio,
        evaluate,
        evaluate_merge,
    )
    from repro.core.candidates import CandidateSelection, select_candidates
    from repro.core.errors import (
        CalibroError,
        ConfigError,
        LinkError,
        OutlineError,
        ServiceError,
    )
    from repro.core.hotfilter import HotFunctionFilter
    from repro.core.merge import (
        MergePlan,
        MergeResult,
        MergeStats,
        merge_functions,
        merge_node_key,
    )
    from repro.core.metadata import DataExtent, MethodMetadata, PcRelativeRef, SlowpathExtent
    from repro.core.outline import (
        GroupOutlineResult,
        OutlineStats,
        OutlinedFunction,
        outline_group,
    )
    from repro.core.parallel import ParallelOutlineResult, outline_partitioned
    from repro.core.patch import PatchError, patch_pc_relative
    from repro.core.patterns import ThunkCache, count_pattern_occurrences
    from repro.core.pipeline import (
        SUMMARY_KEYS,
        SUMMARY_SCHEMA_VERSION,
        CalibroBuild,
        CalibroConfig,
        build_app,
        outline_methods,
    )
    from repro.core.staged import compile_stage, link_stage, outline_stage

"""``repro.lint`` — dependence-declaration checker + runtime sanitizer.

Two prongs guard the paper's central contract (declared dependences are
the truth the runtime schedules by):

* :mod:`repro.lint.static_checker` — an AST pass cross-checking
  ``@entry`` declarations against kernel usage (rules ``REP1xx``);
* :mod:`repro.lint.sanitizer` — "simsan", an opt-in runtime invariant
  checker over hook points in the memory subsystem (rules ``SAN2xx``).

On top of the static pass sits the traffic stack ("bwlint"):
:mod:`repro.lint.dataflow` (loop nests with symbolic trip counts),
:mod:`repro.lint.traffic` (static per-site byte-volume inference, rules
``REP3xx``) and :mod:`repro.lint.guidance` (canonical placement guidance
consumed by the ``static-guided`` and ``phase-guided`` strategies).

Hot-path modules import only the probe (:mod:`repro.hooks`), which the
sanitizer subscribes to; everything here loads lazily so the lint
machinery costs nothing unless used.
"""

from __future__ import annotations

import typing as _t

from repro.lint.findings import (Finding, LintReport, LintViolation, Severity,
                                 Violation)
from repro.lint.rules import RULES, SANITIZER_RULES, STATIC_RULES, Rule

__all__ = [
    "Finding", "LintReport", "LintViolation", "Severity", "Violation",
    "Rule", "RULES", "STATIC_RULES", "SANITIZER_RULES",
    "SimSanitizer", "check_paths", "check_file", "check_source",
    "loop_nests",
    "AnalyzerCrash", "analyze_tree",
    "GuidanceFile", "build_guidance",
]

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.lint.dataflow import loop_nests
    from repro.lint.guidance import GuidanceFile, build_guidance
    from repro.lint.sanitizer import SimSanitizer
    from repro.lint.static_checker import check_file, check_paths, check_source
    from repro.lint.traffic import AnalyzerCrash, analyze_tree

#: lazy attribute -> defining submodule (keeps hook-site imports cheap and
#: avoids import cycles with repro.mem / repro.machine)
_LAZY = {
    "SimSanitizer": "repro.lint.sanitizer",
    "check_paths": "repro.lint.static_checker",
    "check_file": "repro.lint.static_checker",
    "check_source": "repro.lint.static_checker",
    "loop_nests": "repro.lint.dataflow",
    "AnalyzerCrash": "repro.lint.traffic",
    "analyze_tree": "repro.lint.traffic",
    "GuidanceFile": "repro.lint.guidance",
    "build_guidance": "repro.lint.guidance",
}


def __getattr__(name: str) -> _t.Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value

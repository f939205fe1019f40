"""repro-lint: the static analyzer enforcing the stack's determinism and
PAPI-contract invariants (``python -m repro.analysis``)."""

from repro.analysis.core import Finding, Rule, Severity, all_rules
from repro.analysis.driver import AnalysisResult, run_analysis

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "run_analysis",
]

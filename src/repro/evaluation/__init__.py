"""Evaluation substrate: ground truth, recall, harness, reporting."""

from repro.evaluation.groundtruth import GroundTruth, exact_ground_truth
from repro.evaluation.harness import (
    SystemEvaluation,
    evaluate_system,
    modeled_build_seconds,
    modeled_query_seconds,
)
from repro.evaluation.reporting import fmt_duration, render_table, write_csv

__all__ = [
    "GroundTruth",
    "exact_ground_truth",
    "SystemEvaluation",
    "evaluate_system",
    "modeled_build_seconds",
    "modeled_query_seconds",
    "render_table",
    "write_csv",
    "fmt_duration",
]

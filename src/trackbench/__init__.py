"""Evaluation toolkit for short-term single-target trackers.

Scores tracker output against ground truth (overlap, center error,
failure statistics and derived summaries), drives live trackers under
a supervised reinitialization protocol, and provides dataset-level
analyses: accuracy-robustness summaries, measure correlation and
clustering, and sequence property labeling. Plots are emitted as
deterministic SVG.

The names below load their home module on first access (PEP 562), so
importing one submodule, such as the tracker process entry point
`trackbench.tracker_cli`, does not import numpy or the runner.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": (
        "TrackbenchError", "ConfigError", "ParseError", "RunError",
        "InvalidRegionError", "LengthMismatchError", "EmptySeriesError",
        "MeasureDomainError", "FragmentationUndefinedError",
    ),
    "geometry": ("Point", "Region", "overlap", "region_center", "region_size"),
    "dataset": (
        "SequenceAnnotation", "SequenceData", "read_sequence", "write_sequence",
    ),
    "trajectory": (
        "Trajectory", "Tracked", "Failure", "Init",
        "SupervisedRunRecord", "MeasureRow", "MeasureTable",
    ),
    "measures": (
        "MEASURES", "measure_keys", "compute_all", "average_overlap",
        "correct_fraction", "tracking_length", "failure_rate",
        "fragmentation", "cotps_closed_form", "cotps_original", "auc",
        "reliability",
    ),
    "runner": (
        "TrackerHandle", "RunPlan", "run_supervised", "run_unsupervised",
        "execute_plan", "derive_seed",
    ),
    "analysis": (
        "ARPair", "ar_pair", "ar_summary", "pearson_matrix",
        "affinity_propagation", "cluster_measures", "kmeans_partition",
        "kmeans_labels", "label_sequences",
    ),
    "theoretical": (
        "ScriptedTrackerSpec", "ScriptedTracker", "BuiltinTracker",
        "theoretical_trajectory",
        "sequence_properties", "theoretical_ar_points",
    ),
    "io_formats": (
        "read_trajectory", "write_trajectory", "read_record", "write_record",
        "read_measure_table", "write_measure_table",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

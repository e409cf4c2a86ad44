"""Evaluation toolkit for short-term single-target trackers.

Scores tracker output against ground truth (overlap, center error,
failure statistics and derived summaries), drives live trackers under
a supervised reinitialization protocol, and provides dataset-level
analyses: accuracy-robustness summaries, measure correlation and
clustering, and sequence property labeling. Plots are emitted as
deterministic SVG.

Each public name is imported from its own module, for example
`from trackbench.measures import compute_all`. The package itself
imports nothing, so loading one submodule, such as the tracker process
entry point `trackbench.tracker_cli`, does not import numpy or the
runner.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

"""Experiment harness: the paper's eight configurations, end to end.

``run_experiment`` executes the full measurement workflow of the paper's
Sec. IV-B for one configuration -- five uninstrumented reference runs,
an instrumented run per timer mode (five repetitions for the noisy modes
tsc and lt_hwctr, one for the deterministic logical modes), Scalasca-style
analysis of every trace, and averaging of the repeated profiles.  Results
are cached on disk so the benchmark suite can regenerate every table and
figure without re-simulating.
"""

from repro.experiments.configs import EXPERIMENTS, experiment_names, make_app, make_cluster
from repro.experiments.workflow import ExperimentResult, run_experiment
from repro.experiments.faultsweep import (
    FaultSweepResult,
    run_fault_sweep,
    trace_fingerprint,
)
from repro.experiments import reports
from repro.experiments.fitting import fit_omp_effort_constants

__all__ = [
    "EXPERIMENTS",
    "experiment_names",
    "make_app",
    "make_cluster",
    "ExperimentResult",
    "run_experiment",
    "FaultSweepResult",
    "run_fault_sweep",
    "trace_fingerprint",
    "reports",
    "fit_omp_effort_constants",
]

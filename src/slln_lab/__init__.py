"""Verification lab for a strong law of large numbers over sequences that mix
a pairwise-independent part with infrequent, arbitrarily dependent
heavy-tailed inserts whose moment orders vanish.

The package constructs such sequences, verifies every standing hypothesis
exactly or by quadrature, reproduces the intermediate series bounds of the
underlying argument numerically, and demonstrates convergence (and its
failure when hypotheses are broken) on deterministic Monte Carlo ensembles.
"""

__version__ = "0.1.0"

from .diagnostics import ConvergenceReport, PathSummary, Verdict, run_ensemble, suffix_sup, verdict
from .generators import DependenceMode, TailEnvelope, XFamily
from .mixture import ExperimentSpec, run_path
from .rng import Channel, StreamKey, UniformStream, derive_stream
from .schedules import MomentSchedule, ScheduleForm, SparsityMode, SparsityPattern, build_sparsity

__all__ = [
    "__version__",
    "Channel",
    "ConvergenceReport",
    "DependenceMode",
    "ExperimentSpec",
    "MomentSchedule",
    "PathSummary",
    "ScheduleForm",
    "SparsityMode",
    "SparsityPattern",
    "StreamKey",
    "TailEnvelope",
    "UniformStream",
    "Verdict",
    "XFamily",
    "build_sparsity",
    "derive_stream",
    "run_ensemble",
    "run_path",
    "suffix_sup",
    "verdict",
]

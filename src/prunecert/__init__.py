"""Prune MLP control policies and certify the resulting control-signal deviation.

The toolkit scores weights with second-order saliency, applies zero-only or
compensated pruning, and computes closed-form upper bounds on how far the
pruned policy's output can move from the original on a bounded state space.
The inverse problem is covered too: given a control-error budget, compute the
largest per-layer perturbation magnitude that still certifies.
"""

from prunecert.linalg import (
    SingularMatrixError,
    damped_inverse,
    gram,
    spectral_norm,
)
from prunecert.policy import (
    ActivationKind,
    Layer,
    MlpPolicy,
    apply_activation,
    forward,
    forward_batch,
    load_policy,
    save_policy,
)
from prunecert.pruner import (
    CalibrationBatch,
    PrunePlan,
    Ranking,
    collect_calibration,
    obs_compensate,
    prune_to_budget,
    rank_weights,
)
from prunecert.certifier import (
    AuditSummary,
    Certificate,
    StateSpaceSpec,
    admissible_magnitude,
    certify,
)
from prunecert.controlsim import (
    BlowUpError,
    DoubleIntegrator,
    LinearSystem,
    Pendulum,
    Trajectory,
    deviation_audit,
    rollout,
    step,
)

__version__ = "0.1.0"

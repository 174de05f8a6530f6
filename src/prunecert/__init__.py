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
    frobenius_norm,
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
    lipschitz_upper,
    load_policy,
    save_policy,
)
from prunecert.pruner import (
    CalibrationBatch,
    PrunePlan,
    Ranking,
    activation_loss,
    apply_plan,
    collect_calibration,
    obd_saliency,
    obs_compensate,
    rank_weights,
)
from prunecert.certifier import (
    AuditSummary,
    Certificate,
    StateSpaceSpec,
    admissible_magnitude,
    audit_bound,
    bound_constant_max,
    bound_constant_state,
    multi_layer_budget,
    single_layer_bound,
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

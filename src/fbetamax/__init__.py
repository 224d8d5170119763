"""Multi-label F-beta learning via calibrated surrogate decomposition.

The pipeline reduces F-beta maximization over s tags to 1 + s*|K| binary
class-probability problems, where K is the set of observed label counts
(at most s^2 + 1 problems), trains regularized linear models for them, and
decodes predictions by an exact cubic-time minimization over all labelings.
"""

from .baselines import BrModel, EfpModel, train_br, train_efp
from .decoding import decode_brute, decode_rows
from .evaluation import (
    DEFAULT_REG_GRID,
    EvalReport,
    check_regret_bound,
    cross_validate,
    evaluate,
    evaluate_bits,
    regret_transfer_bound,
    surrogate_regret_estimate,
)
from .fmeasure import (
    BetaParam,
    LabelVec,
    StatIndex,
    expected_fbeta,
    fbeta,
    label_stats,
    loss_coeffs,
    precision,
    recall,
)
from .losses import logistic_loss, logit_link, pointwise_binary_regret, sigmoid
from .surrogate import SurrogateConfig, binary_targets, surrogate_gradient, surrogate_loss
from .synth import build_distribution, sample_batch, sample_point
from .training import (
    Dataset,
    LinearModel,
    TrainConfig,
    train_multinomial,
    train_surrogate,
)

__version__ = "0.1.0"

"""Bilevel problem families and dataset utilities."""

from .base import (
    BilevelProblem,
    DeferredRows,
    ExactGradients,
    ProblemConstants,
    StochasticSample,
)
from .data import densify, parse_libsvm, split_partition, train_val_split
from .hyperopt import (
    HyperoptBilevel,
    logistic_grad,
    logistic_loss,
    make_hyperopt,
    sigmoid,
    softplus,
)
from .policy_eval import PolicyEvalBilevel, make_policy_eval
from .quadratic import QuadraticBilevel, make_quadratic

__all__ = [
    "BilevelProblem",
    "DeferredRows",
    "ExactGradients",
    "HyperoptBilevel",
    "PolicyEvalBilevel",
    "ProblemConstants",
    "QuadraticBilevel",
    "StochasticSample",
    "densify",
    "logistic_grad",
    "logistic_loss",
    "make_hyperopt",
    "make_policy_eval",
    "make_quadratic",
    "parse_libsvm",
    "sigmoid",
    "softplus",
    "split_partition",
    "train_val_split",
]

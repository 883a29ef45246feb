"""Bilevel problem families and dataset utilities."""

from .base import (
    BilevelProblem,
    ExactGradients,
    ProblemConstants,
    StochasticSample,
    implicit_hypergrad,
)
from .data import densify, parse_libsvm, split_partition, train_val_split
from .hyperopt import (
    HyperoptBilevel,
    logistic_grad,
    logistic_loss,
    make_hyperopt,
    make_synthetic_hyperopt,
    sigmoid,
    softplus,
)
from .policy_eval import PolicyEvalBilevel, make_policy_eval
from .quadratic import QuadraticBilevel, make_quadratic

__all__ = [
    "BilevelProblem",
    "ExactGradients",
    "HyperoptBilevel",
    "PolicyEvalBilevel",
    "ProblemConstants",
    "QuadraticBilevel",
    "StochasticSample",
    "densify",
    "implicit_hypergrad",
    "logistic_grad",
    "logistic_loss",
    "make_hyperopt",
    "make_policy_eval",
    "make_quadratic",
    "make_synthetic_hyperopt",
    "parse_libsvm",
    "sigmoid",
    "softplus",
    "split_partition",
    "train_val_split",
]

"""Hyperparameter optimization of per-coordinate regularization weights.

The inner problem fits a logistic classifier y on each agent's training
shard under a diagonal quadratic regularizer whose weights are driven by
the outer variable x:

    g_k(x, y) = mean_j loss(y; w_j, z_j) + sum_i (softplus(x_i) + lam_min)/2 * y_i^2

The softplus keeps every regularizer weight above lam_min > 0, so the
inner problem is strongly convex for every x.  The outer objective is the
validation loss of the fitted classifier; it has no direct x dependence,
so the entire hypergradient flows through the inner solution.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigError, NumericsError
from .base import (
    BilevelProblem,
    DeferredRows,
    ExactGradients,
    ProblemConstants,
    StochasticSample,
    clip_spectrum,
    matvec,
)
from .data import densify, parse_libsvm, split_partition, train_val_split


def sigmoid(t):
    return expit(t)


def softplus(t):
    return np.logaddexp(0.0, t)


def logistic_loss(y, w, z) -> float:
    """Cross-entropy of a single point (w, z) with z in {0, 1}."""
    t = float(np.dot(w, y))
    return float(np.logaddexp(0.0, t) - z * t)


def logistic_grad(y, w, z) -> np.ndarray:
    t = float(np.dot(w, y))
    return (float(expit(t)) - z) * np.asarray(w, dtype=float)


def _pool(features, labels, shards, which: str):
    """Gather the agents' ``which`` shards, given as row indices, into one
    pooled set.

    Returns the pooled features and labels, the per-row weight 1/(K n_k)
    that turns a weighted sum over the pool into the agent average of
    per-shard means, and each agent's shard as a (start, size) pair of
    (K,) arrays: agent k owns pooled rows start[k] .. start[k] + size[k] - 1.
    """
    sizes = np.array([len(shard) for shard in shards])
    if not sizes.all():
        raise ConfigError(f"agent {int(np.argmin(sizes))} has an empty {which} shard")
    rows = np.concatenate(shards)
    weight = np.repeat(1.0 / (len(shards) * sizes), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return features[rows], labels[rows], weight, starts, sizes


class HyperoptBilevel(BilevelProblem):
    """One labelled dataset; agent k trains on rows ``train_shards[k]`` and
    validates on rows ``val_shards[k]`` of ``features`` and ``labels``."""

    def __init__(self, features, labels, train_shards, val_shards, lam_min: float = 1e-3,
                 minibatch: int = 1):
        if lam_min <= 0:
            raise ConfigError(f"reg floor lam_min must be positive, got {lam_min!r}")
        if minibatch < 1:
            raise ConfigError("minibatch must be >= 1")
        self.k = len(train_shards)
        if self.k == 0 or len(val_shards) != self.k:
            raise ConfigError("need one train and one validation shard per agent")
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise ConfigError(f"labels {labels.shape} do not match features {features.shape}")
        self.lam_min = float(lam_min)
        self.minibatch = int(minibatch)
        self._train_w, self._train_z, self._train_wt, self._train_start, self._train_size = (
            _pool(features, labels, train_shards, "train"))
        self._val_w, self._val_z, self._val_wt, self._val_start, self._val_size = _pool(
            features, labels, val_shards, "validation")
        self._train_sq = np.einsum("ij,ij->i", self._train_w, self._train_w)
        max_sq = float(self._train_sq.max())

        # l_g covers the data curvature plus regularizer weights up to
        # softplus(x_i) ~ 2; larger weights are projected back into the
        # spectral ball (they only arise for extreme outer iterates).
        l_g = 0.25 * max_sq + self.lam_min + 2.0
        self.constants = ProblemConstants(
            d_x=features.shape[1],
            d_y=features.shape[1],
            mu_g=self.lam_min,
            l_g=l_g,
            kappa_g=self.lam_min / l_g,
            sigma_f=0.0,
            sigma_g=0.0,
        )

    def _reg_weights(self, x):
        return softplus(x) + self.lam_min

    def sample(self, agents, xs, ys, rngs, b=1):
        agents = np.asarray(agents)
        rows, mb, dim = len(agents), self.minibatch, self.d_y
        reg = self._reg_weights(xs)

        # Row r draws shard-local indices from rngs[r] alone (validation
        # minibatch, training minibatch, then b Hessian minibatches) and
        # offsets them into the pooled arrays.
        val_idx = np.empty((rows, mb), dtype=np.int64)
        tr_idx = np.empty((rows, mb), dtype=np.int64)
        h_idx = np.empty((rows, b, mb), dtype=np.int64)
        val_size, tr_size = self._val_size[agents], self._train_size[agents]
        for r, rng in enumerate(rngs):
            val_idx[r] = rng.integers(0, val_size[r], size=mb)
            tr_idx[r] = rng.integers(0, tr_size[r], size=mb)
            h_idx[r] = rng.integers(0, tr_size[r], size=(b, mb))
        val_idx += self._val_start[agents][:, None]
        tr_start = self._train_start[agents]
        tr_idx += tr_start[:, None]
        h_idx += tr_start[:, None, None]

        wv, zv = self._val_w[val_idx], self._val_z[val_idx]
        gy_f = ((sigmoid(matvec(wv, ys)) - zv)[:, :, None] * wv).mean(axis=1)
        gx_f = np.zeros((rows, self.d_x))

        wt, zt = self._train_w[tr_idx], self._train_z[tr_idx]
        gy_g = ((sigmoid(matvec(wt, ys)) - zt)[:, :, None] * wt).mean(axis=1) + reg * ys

        diag = np.arange(dim)
        hxy = np.zeros((rows, dim, dim))
        hxy[:, diag, diag] = sigmoid(xs) * ys

        # The Hessian draws are the only (b, dim, dim)-per-row field, and
        # their randomness is h_idx alone: fix the indices, curvatures and
        # clip flags here and expand one row when a reader asks for it.
        curv = sigmoid(matvec(self._train_w[h_idx], ys[:, None]))  # (rows, b, mb)
        curv *= 1.0 - curv
        # Cheap spectral bound per row: data term <= max ||w||^2/4 plus the
        # largest regularizer weight; only rows that can exceed the ball clip.
        top_bound = 0.25 * self._train_sq[h_idx].max(axis=(1, 2)) + reg.max(axis=1)
        lo, hi = self.constants.spectral_ball
        clip = top_bound > hi

        def hess_row(r):
            wh = self._train_w[h_idx[r]]  # (b, mb, dim)
            if dim == 1:
                # For 1 x 1 matrices numpy sums the two-operand form over
                # the minibatch in another order; keep the three-operand bits.
                hyy = np.einsum("bm,bmi,bmj->bij", curv[r], wh, wh)
            else:
                hyy = np.einsum("bmi,bmj->bij", curv[r, :, :, None] * wh, wh)
            hyy /= mb
            hyy[:, diag, diag] += reg[r]
            if clip[r]:
                hyy = clip_spectrum(hyy, lo, hi)
            return hyy

        return StochasticSample(gx_f=gx_f, gy_f=gy_f, gy_g=gy_g, hxy_g=hxy,
                                hyy_g_draws=DeferredRows((rows, b, dim, dim), hess_row))

    # Full-data quantities: one weighted sum over the pooled rows gives the
    # agent average of per-shard means.
    def _full_inner_grad(self, x, y):
        resid = sigmoid(self._train_w @ y) - self._train_z
        return (self._train_wt * resid) @ self._train_w + self._reg_weights(x) * y

    def _full_inner_hess(self, x, y):
        curv = sigmoid(self._train_w @ y)
        curv = self._train_wt * curv * (1.0 - curv)
        return (self._train_w.T * curv) @ self._train_w + np.diag(self._reg_weights(x))

    def _full_outer_grad_y(self, y):
        resid = sigmoid(self._val_w @ y) - self._val_z
        return (self._val_wt * resid) @ self._val_w

    def exact_lower(self, x):
        """y*(x) by damped Newton on the full-data inner objective."""
        y = np.zeros(self.d_y)
        grad = self._full_inner_grad(x, y)
        gnorm = np.linalg.norm(grad)
        for _ in range(100):
            if gnorm <= 1e-12:
                return y
            step = np.linalg.solve(self._full_inner_hess(x, y), grad)
            # Damped Newton: halve until the gradient norm decreases.  The
            # accepted trial's gradient is the next iteration's.
            scale = 1.0
            for _ in range(40):
                trial = y - scale * step
                trial_grad = self._full_inner_grad(x, trial)
                trial_norm = np.linalg.norm(trial_grad)
                if trial_norm < gnorm:
                    y, grad, gnorm = trial, trial_grad, trial_norm
                    break
                scale *= 0.5
            else:
                raise NumericsError("inner Newton solve stalled")
        raise NumericsError("inner Newton solve did not reach tolerance in 100 steps")

    def outer_value(self, x, y):
        t = self._val_w @ y
        return float(self._val_wt @ (np.logaddexp(0.0, t) - self._val_z * t))

    def exact_gradients(self, x, y):
        return ExactGradients(
            gx_f=np.zeros(self.d_x),
            gy_f=self._full_outer_grad_y(y),
            gy_g=self._full_inner_grad(x, y),
            hxy_g=np.diag(sigmoid(x) * y),
            hyy_g=self._full_inner_hess(x, y),
        )


def make_hyperopt(cfg, k: int) -> HyperoptBilevel:
    """Instance of a hyperopt ``ProblemConfig``: synthetic logistic data, or
    the LIBSVM file ``data_path``, split for train/validation and sharded
    over agents."""
    seed = cfg.seed
    if not cfg.data_path:
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((cfg.n_points, cfg.dim))
        truth = rng.standard_normal(cfg.dim)
        labels = (rng.random(cfg.n_points) < sigmoid(features @ truth)).astype(float)
        train, val = train_val_split(range(cfg.n_points), seed=seed,
                                     fraction=1.0 - cfg.val_fraction)
        train_shards = split_partition(train, k, seed=seed + 1)
        val_shards = split_partition(val, k, seed=seed + 2)
    else:
        try:
            with open(cfg.data_path, "r", encoding="utf-8") as fh:
                records = parse_libsvm(fh)
        except OSError as err:
            raise ConfigError(f"cannot read data from {cfg.data_path!r}: {err}") from err
        features, labels = densify(records)
        if labels.min() == labels.max():
            raise ConfigError(f"every label in {cfg.data_path!r} maps to class {labels[0]:g} "
                              "(labels <= 0 map to 0, labels > 0 to 1); it needs both classes")
        train_shards, val_shards = zip(*(
            train_val_split(shard, seed + 1, fraction=1.0 - cfg.val_fraction)
            for shard in split_partition(range(len(labels)), k, seed)))
    return HyperoptBilevel(features, labels, train_shards, val_shards,
                           lam_min=cfg.reg_floor, minibatch=cfg.minibatch)

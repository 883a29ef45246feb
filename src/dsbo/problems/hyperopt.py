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
    ExactGradients,
    ProblemConstants,
    StochasticSample,
    clip_spectrum,
)


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


def _pool(parts):
    """Concatenate per-agent (w, z) shards into one pooled set.

    Returns the pooled features and labels, the per-row weight 1/(K n_k)
    that turns a weighted sum over the pool into the agent average of
    per-shard means, and each agent's shard as a view into the pool.
    """
    sizes = np.array([z.shape[0] for _, z in parts])
    w = np.concatenate([w for w, _ in parts])
    z = np.concatenate([z for _, z in parts])
    weight = np.repeat(1.0 / (len(parts) * sizes), sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    shards = [(w[lo:hi], z[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return w, z, weight, shards


class HyperoptBilevel(BilevelProblem):
    def __init__(self, train_parts, val_parts, lam_min: float = 1e-3, minibatch: int = 1):
        if lam_min <= 0:
            raise ConfigError(f"reg floor lam_min must be positive, got {lam_min!r}")
        if minibatch < 1:
            raise ConfigError("minibatch must be >= 1")
        self.k = len(train_parts)
        if self.k == 0 or len(val_parts) != self.k:
            raise ConfigError("need one train and one validation part per agent")
        train = [(np.asarray(w, dtype=float), np.asarray(z, dtype=float)) for w, z in train_parts]
        val = [(np.asarray(w, dtype=float), np.asarray(z, dtype=float)) for w, z in val_parts]
        dims = {w.shape[1] for w, _ in train} | {w.shape[1] for w, _ in val}
        if len(dims) != 1:
            raise ConfigError(f"feature-dimension mismatch across partitions: {sorted(dims)}")
        for which, parts in (("train", train), ("validation", val)):
            for agent, (w, z) in enumerate(parts):
                if w.shape[0] == 0:
                    raise ConfigError(f"agent {agent} has an empty {which} partition")
                if z.shape[0] != w.shape[0]:
                    raise ConfigError(f"agent {agent}: {which} labels do not match features")
        dim = dims.pop()
        self.lam_min = float(lam_min)
        self.minibatch = int(minibatch)
        self._train_w, self._train_z, self._train_wt, self._train = _pool(train)
        self._val_w, self._val_z, self._val_wt, self._val = _pool(val)
        self._train_sqnorms = [np.einsum("ij,ij->i", w, w) for w, _ in self._train]
        max_sq = max(float(s.max()) for s in self._train_sqnorms)

        # l_g covers the data curvature plus regularizer weights up to
        # softplus(x_i) ~ 2; larger weights are projected back into the
        # spectral ball (they only arise for extreme outer iterates).
        l_g = 0.25 * max_sq + self.lam_min + 2.0
        self.constants = ProblemConstants(
            d_x=dim,
            d_y=dim,
            mu_g=self.lam_min,
            l_g=l_g,
            kappa_g=self.lam_min / l_g,
            sigma_f=0.0,
            sigma_g=0.0,
        )
        self._spec_lo = self.constants.l_g * self.constants.kappa_g
        self._spec_hi = self.constants.l_g * (2.0 - self.constants.kappa_g)

    def _reg_weights(self, x):
        return softplus(x) + self.lam_min

    def sample(self, agent, x, y, rng, b=1):
        w_tr, z_tr = self._train[agent]
        w_val, z_val = self._val[agent]
        reg = self._reg_weights(x)
        mb = self.minibatch

        val_idx = rng.integers(0, w_val.shape[0], size=mb)
        wv, zv = w_val[val_idx], z_val[val_idx]
        gy_f = ((sigmoid(wv @ y) - zv)[:, None] * wv).mean(axis=0)
        gx_f = np.zeros(self.d_x)

        tr_idx = rng.integers(0, w_tr.shape[0], size=mb)
        wt, zt = w_tr[tr_idx], z_tr[tr_idx]
        gy_g = ((sigmoid(wt @ y) - zt)[:, None] * wt).mean(axis=0) + reg * y

        hxy = np.diag(sigmoid(x) * y)

        h_idx = rng.integers(0, w_tr.shape[0], size=(b, mb))
        wh = w_tr[h_idx]  # (b, mb, dim)
        curv = sigmoid(wh @ y)
        curv = curv * (1.0 - curv)
        hyy = np.einsum("bm,bmi,bmj->bij", curv, wh, wh) / mb
        hyy[:, np.arange(self.d_y), np.arange(self.d_y)] += reg
        # Cheap spectral bound: data term <= max ||w||^2/4 plus the largest
        # regularizer weight; only clip when it can exceed the ball.
        top_bound = 0.25 * self._train_sqnorms[agent][h_idx].max() + reg.max()
        if top_bound > self._spec_hi:
            hyy = clip_spectrum(hyy, self._spec_lo, self._spec_hi)
        return StochasticSample(gx_f=gx_f, gy_f=gy_f, gy_g=gy_g, hxy_g=hxy, hyy_g_draws=hyy)

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
        for _ in range(100):
            grad = self._full_inner_grad(x, y)
            gnorm = np.linalg.norm(grad)
            if gnorm <= 1e-12:
                return y
            step = np.linalg.solve(self._full_inner_hess(x, y), grad)
            # Damped Newton: halve until the gradient norm decreases.
            scale = 1.0
            for _ in range(40):
                trial = y - scale * step
                if np.linalg.norm(self._full_inner_grad(x, trial)) < gnorm:
                    y = trial
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


def make_hyperopt(k, datasets, reg_floor: float = 1e-3, minibatch: int = 1) -> HyperoptBilevel:
    """Build from per-agent ((train_w, train_z), (val_w, val_z)) tuples."""
    if len(datasets) != k:
        raise ConfigError(f"expected {k} per-agent datasets, got {len(datasets)}")
    train_parts = [train for train, _ in datasets]
    val_parts = [val for _, val in datasets]
    return HyperoptBilevel(train_parts, val_parts, lam_min=reg_floor, minibatch=minibatch)


def make_synthetic_hyperopt(
    k: int,
    n_points: int,
    dim: int,
    seed: int,
    reg_floor: float = 1e-3,
    minibatch: int = 1,
    val_fraction: float = 0.5,
) -> HyperoptBilevel:
    """Synthetic logistic data, split for train/validation, sharded over agents."""
    from .data import split_partition, train_val_split

    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_points, dim))
    truth = rng.standard_normal(dim)
    labels = (rng.random(n_points) < sigmoid(features @ truth)).astype(float)
    items = list(zip(features, labels))
    train_items, val_items = train_val_split(items, seed=seed, fraction=1.0 - val_fraction)
    datasets = []
    for tr, va in zip(
        split_partition(train_items, k, seed=seed + 1),
        split_partition(val_items, k, seed=seed + 2),
    ):
        tr_w = np.stack([w for w, _ in tr])
        tr_z = np.array([z for _, z in tr])
        va_w = np.stack([w for w, _ in va])
        va_z = np.array([z for _, z in va])
        datasets.append(((tr_w, tr_z), (va_w, va_z)))
    return make_hyperopt(k, datasets, reg_floor=reg_floor, minibatch=minibatch)

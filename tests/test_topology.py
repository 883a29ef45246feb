"""Mixing-matrix construction, validation, and gossip contraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbo import (
    DisconnectedTopologyError,
    MixingMatrix,
    NegativeEntryError,
    NotDoublyStochasticError,
    NotSymmetricError,
    TopologyError,
    build_complete,
    build_custom,
    build_ring,
    gossip_mix,
    spectral_gap,
)

# Contraction factors computed independently by eigendecomposition of
# W - (1/k) 11^T; the k=5 value also matches the closed form
# (1/3 + (2/3) cos(2 pi/5))^2.
RING_RHO = {3: 0.0, 5: 0.290892665416655, 8: 0.6476030138606875, 12: 0.8293446239041954}


def circulant_rho(first_row: np.ndarray) -> float:
    """rho of a symmetric circulant W from its closed-form eigenvalues.

    The eigenvalues of a circulant are the DFT of its first row; index 0
    is the row sum 1, which W - (1/K) 11^T maps to 0.
    """
    return float(np.abs(np.fft.fft(first_row).real[1:]).max() ** 2)


def circulant(first_row: np.ndarray) -> np.ndarray:
    k = first_row.shape[0]
    idx = np.arange(k)
    return first_row[(idx[None, :] - idx[:, None]) % k]


class TestBuildRing:
    def test_weights_shape_and_values(self):
        w = build_ring(5)
        assert w.k == 5
        assert w.weights[0, 0] == w.weights[0, 1] == w.weights[0, 4] == pytest.approx(1 / 3)
        assert w.weights[0, 2] == 0.0

    def test_rho_matches_closed_form(self):
        assert build_ring(5).rho == pytest.approx(RING_RHO[5], abs=1e-10)

    @pytest.mark.parametrize("k", sorted(RING_RHO))
    def test_rho_matches_eigendecomposition(self, k):
        w = build_ring(k)
        assert w.rho == pytest.approx(RING_RHO[k], abs=1e-10)
        assert w.rho == pytest.approx(circulant_rho(w.weights[0]), rel=1e-12, abs=1e-14)

    def test_small_rings_rejected(self):
        with pytest.raises(TopologyError):
            build_ring(2)


class TestBuildComplete:
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_rho_zero(self, k):
        w = build_complete(k)
        assert w.rho == 0.0
        assert np.allclose(w.weights, 1.0 / k)

    def test_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            build_complete(0)


class TestBuildCustom:
    def test_accepts_valid_matrix(self):
        mat = np.array([[0.5, 0.5], [0.5, 0.5]])
        w = build_custom(mat)
        assert w.rho == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        mat = np.array([[0.6, 0.4], [0.5, 0.5]])
        with pytest.raises(NotSymmetricError):
            build_custom(mat)

    def test_rejects_negative_entries(self):
        mat = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(NegativeEntryError):
            build_custom(mat)

    def test_rejects_bad_row_sums(self):
        mat = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(NotDoublyStochasticError):
            build_custom(mat)

    def test_identity_warns_but_builds(self):
        with pytest.warns(UserWarning):
            w = build_custom(np.eye(3))
        assert w.rho == pytest.approx(1.0)

    def test_identity_with_require_connected_raises(self):
        with pytest.raises(DisconnectedTopologyError):
            build_custom(np.eye(3), require_connected=True)

    def test_block_diagonal_disconnected(self):
        mat = np.zeros((4, 4))
        mat[:2, :2] = 0.5
        mat[2:, 2:] = 0.5
        with pytest.raises(DisconnectedTopologyError):
            build_custom(mat, require_connected=True)

    def test_tolerates_tiny_rounding(self):
        mat = np.array([[0.5, 0.5], [0.5, 0.5]]) + 1e-13
        mat = (mat + mat.T) / 2
        build_custom(mat)  # sums off by 2e-13 < 1e-9: accepted


class TestSpectralGap:
    # rtol 1e-12 against the closed form; the absolute floor covers rho
    # near 0, where eigenvalue error is absolute (about K * 1e-16).
    @pytest.mark.parametrize("k", [3, 5, 8, 12, 50, 200])
    def test_matches_eigendecomposition(self, k):
        w = build_ring(k)
        expect = circulant_rho(w.weights[0])
        assert spectral_gap(w.weights) == pytest.approx(expect, rel=1e-12, abs=1e-14)
        assert w.rho == spectral_gap(w.weights)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=32),
           st.integers(1, 100), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_symmetric_circulants(self, half, self_weight, odd):
        # first row c with c_j = c_{K-j}: self weight, then half, mirrored
        row = np.array([self_weight, *half, *half[::-1][(0 if odd else 1):]], dtype=float)
        row /= row.sum()
        w = MixingMatrix(circulant(row))
        assert w.k == row.shape[0]
        assert w.rho == pytest.approx(circulant_rho(row), rel=1e-12, abs=1e-14)

    def test_complete_graph_exact_zero(self):
        assert spectral_gap(build_complete(6).weights) == 0.0

    def test_swap_does_not_contract(self):
        # the swap's eigenvalues are +1 and -1, so deflation leaves -1
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_gap(mat) == pytest.approx(1.0, rel=1e-12)

    def test_nonsymmetric_input_rejected(self):
        # doubly stochastic directed 3-cycle: its true rho is 0.25, but a
        # one-triangle eigensolve would report 0.531
        mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(NotSymmetricError):
            spectral_gap(mat)


class TestMixingMatrix:
    def test_k_comes_from_weights(self):
        w = MixingMatrix(np.full((4, 4), 0.25))
        assert w.k == 4 and w.rho == 0.0

    def test_only_weights_are_accepted(self):
        with pytest.raises(TypeError):
            MixingMatrix(np.eye(4), rho=0.5)
        with pytest.raises(TypeError):
            MixingMatrix(k=3, weights=np.eye(4))

    @pytest.mark.parametrize("mat, error", [
        (np.ones((2, 3)) / 3, TopologyError),
        (np.array([[0.6, 0.4], [0.5, 0.5]]), NotSymmetricError),
        (np.array([[1.2, -0.2], [-0.2, 1.2]]), NegativeEntryError),
        (np.array([[0.5, 0.4], [0.4, 0.5]]), NotDoublyStochasticError),
        (np.zeros((0, 0)), TopologyError),
    ])
    def test_validates_itself(self, mat, error):
        with pytest.raises(error):
            MixingMatrix(mat)

    def test_copies_the_input(self):
        mat = np.full((3, 3), 1.0 / 3.0)
        w = MixingMatrix(mat)
        mat[0, 0] = 5.0
        assert w.weights[0, 0] == pytest.approx(1.0 / 3.0)


class TestGossipMix:
    def test_matches_matrix_product(self):
        w = build_ring(5)
        rng = np.random.default_rng(0)
        values = rng.standard_normal((5, 7))
        assert np.allclose(gossip_mix(values, w), w.weights @ values)

    def test_matrix_valued_states(self):
        w = build_ring(4)
        rng = np.random.default_rng(1)
        stacks = rng.standard_normal((4, 3, 3))
        mixed = gossip_mix(stacks, w)
        assert mixed.shape == (4, 3, 3)
        assert np.allclose(mixed[0], sum(w.weights[0, j] * stacks[j] for j in range(4)))

    @given(st.integers(1, 6), st.lists(st.integers(1, 4), max_size=3), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_tensordot(self, k, trailing, seed):
        rng = np.random.default_rng(seed)
        mat = np.ones((1, 1)) if k == 1 else rng.dirichlet(np.ones(k), size=k)
        values = rng.standard_normal((k, *trailing))
        mixed = gossip_mix(values, mat)
        expect = np.tensordot(mat, values, axes=(1, 0))
        assert mixed.shape == expect.shape
        assert mixed.tobytes() == expect.tobytes()

    def test_shape_mismatch_rejected(self):
        w = build_ring(3)
        with pytest.raises(ValueError):
            gossip_mix(np.ones((4, 2)), w)

    @given(st.integers(3, 9), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_average_preserved(self, k, seed):
        w = build_ring(k)
        values = np.random.default_rng(seed).standard_normal((k, 4))
        mixed = gossip_mix(values, w)
        assert np.allclose(mixed.mean(axis=0), values.mean(axis=0), atol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_contraction_by_sqrt_rho(self, k, seed):
        w = build_ring(k)
        values = np.random.default_rng(seed).standard_normal((k, 4))
        mean = values.mean(axis=0)
        before = np.linalg.norm(values - mean)
        after = np.linalg.norm(gossip_mix(values, w) - mean)
        assert after <= np.sqrt(w.rho) * before + 1e-10


class TestInvariants:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_doubly_stochastic_tight(self, k):
        w = build_ring(k)
        assert np.abs(w.weights.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(w.weights.sum(axis=1) - 1).max() < 1e-12
        assert (w.weights == w.weights.T).all()

    def test_weights_frozen(self):
        w = build_ring(5)
        with pytest.raises(ValueError):
            w.weights[0, 0] = 2.0

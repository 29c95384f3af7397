"""State-space container, matrix exponential, and transition blocks."""

import numpy as np
import pytest
from scipy.integrate import quad_vec

import oracles
from ancsim import (
    ContinuousStateSpace,
    DimensionError,
    PlantSpecificationError,
    expm,
    freq_response_grid,
    from_second_order_bank,
    parallel,
    period_gramian,
    series,
    vanloan,
)
from ancsim.tolerances import TOL


def lag(pole=1.0):
    return ContinuousStateSpace(A=[[-pole]], B=[[1.0]], C=[[1.0]])


# ---------------------------------------------------------------------------
# container


def test_shapes_normalized():
    sys = ContinuousStateSpace(A=[[-1.0]], B=[1.0], C=[2.0])
    assert sys.B.shape == (1, 1)
    assert sys.C.shape == (1, 1)
    assert sys.nstates == 1


def test_arrays_read_only():
    sys = lag()
    with pytest.raises(ValueError):
        sys.A[0, 0] = 5.0


def test_dimension_mismatch_rejected():
    """Only SISO plants with at least one state and no feedthrough can be built."""
    with pytest.raises(DimensionError):
        ContinuousStateSpace(A=[[-1.0, 0.0]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(DimensionError):
        ContinuousStateSpace(A=[[-1.0]], B=[[1.0], [0.0]], C=[[1.0]])
    with pytest.raises(DimensionError):
        ContinuousStateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0, 0.0]])
    with pytest.raises(DimensionError, match="one input"):
        ContinuousStateSpace(A=-np.eye(2), B=np.ones((2, 2)), C=[[1.0, 0.0]])
    with pytest.raises(DimensionError, match="one output"):
        ContinuousStateSpace(A=-np.eye(2), B=[[1.0], [0.0]], C=np.ones((2, 2)))
    with pytest.raises(DimensionError, match="at least one state"):
        ContinuousStateSpace(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)))
    with pytest.raises(TypeError):
        ContinuousStateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        ContinuousStateSpace(A=[[np.nan]], B=[[1.0]], C=[[1.0]])


def test_poles_and_stability():
    sys = ContinuousStateSpace(A=[[-1.0, 2.0], [-2.0, -1.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]])
    assert sorted(np.round(sys.poles.imag, 12)) == [-2.0, 2.0]
    assert sys.is_stable
    integ = ContinuousStateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    assert not integ.is_stable


def test_validate_plant_raises():
    unstable = ContinuousStateSpace(A=[[0.3]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(PlantSpecificationError, match="demo is unstable"):
        unstable.validate_plant("demo")


# ---------------------------------------------------------------------------
# interconnections


def test_series_is_response_product():
    rng = np.random.default_rng(11)
    s1 = oracles_plant(rng)
    s2 = oracles_plant(rng)
    both = series(s1, s2)
    assert both.nstates == s1.nstates + s2.nstates
    for w in (0.0, 0.37, 2.9):
        want = oracles.freq_response(s2, w) * oracles.freq_response(s1, w)
        got = oracles.freq_response(both, w)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_parallel_is_response_sum():
    rng = np.random.default_rng(12)
    s1 = oracles_plant(rng)
    s2 = oracles_plant(rng)
    both = parallel(s1, s2)
    for w in (0.0, 1.3):
        want = oracles.freq_response(s1, w) + oracles.freq_response(s2, w)
        got = oracles.freq_response(both, w)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def oracles_plant(rng):
    from conftest import random_stable_siso

    return random_stable_siso(rng, max_states=6)


# ---------------------------------------------------------------------------
# frequency response


def test_freq_response_lag_closed_form():
    sys = lag(1.0)
    assert abs(oracles.freq_response(sys, 0.0) - 1.0) < 1e-14
    r = oracles.freq_response(sys, 1.0)
    assert abs(abs(r) - 1.0 / np.sqrt(2.0)) < 1e-14
    assert abs(np.angle(r) + np.pi / 4.0) < 1e-14


def test_freq_response_grid_matches_pointwise():
    rng = np.random.default_rng(13)
    sys = oracles_plant(rng)
    omegas = np.linspace(0.0, 6.0, 25)
    grid = freq_response_grid(sys, omegas)
    assert grid.shape == omegas.shape
    for i, w in enumerate(omegas):
        assert np.allclose(grid[i], oracles.freq_response(sys, w), rtol=1e-9, atol=1e-12)


def test_freq_response_grid_fallback_matches_pointwise(default_config):
    """Non-diagonalizable plants take the stacked solves, over several chunks."""
    critically_damped = default_config.with_overrides(zeta=1.0).secondary()
    jordan = ContinuousStateSpace(
        A=[[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
        B=[[0.5], [-1.0], [2.0]],
        C=[[1.0, 0.3, -0.7]],
    )
    omegas = np.linspace(-12.0, 12.0, 2049)
    for sys in (critically_damped, jordan):
        assert sys._modal is None
        grid = freq_response_grid(sys, omegas)
        want = np.array([oracles.freq_response(sys, w) for w in omegas])
        assert grid.shape == want.shape
        assert np.abs(grid - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# plant builder


def test_first_order_chain_only():
    sys = from_second_order_bank([1.0], [0.5], [2.0], first_order_poles=())
    # single resonant section: g w^2 / (s^2 + 2 z w s + w^2)
    for w in (0.0, 1.0, 2.0, 3.7):
        denom = -(w**2) + 2j * 0.5 * 2.0 * w + 4.0
        want = 1.0 * 4.0 / denom
        got = oracles.freq_response(sys, w)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_lag_chain_then_bank():
    sys = from_second_order_bank([2.0], [0.1], [3.0], first_order_poles=(1.5,))
    for w in (0.0, 0.9, 3.0):
        sec = 2.0 * 9.0 / (-(w**2) + 2j * 0.1 * 3.0 * w + 9.0)
        want = sec / (1j * w + 1.5)
        got = oracles.freq_response(sys, w)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_bank_builder_validation():
    with pytest.raises(PlantSpecificationError):
        from_second_order_bank([], [], [])
    with pytest.raises(DimensionError):
        from_second_order_bank([1.0], [0.1], [1.0, 2.0])
    with pytest.raises(PlantSpecificationError):
        from_second_order_bank([1.0], [0.0], [1.0])
    with pytest.raises(PlantSpecificationError):
        from_second_order_bank([1.0], [0.1], [-1.0])
    with pytest.raises(PlantSpecificationError):
        from_second_order_bank([1.0], [0.1], [1.0], first_order_poles=(0.0,))


def test_benchmark_plants_structure(default_config):
    sec = default_config.secondary()
    pri = default_config.primary()
    assert sec.nstates == 9
    assert pri.nstates == 10
    sec.validate_plant("secondary")
    pri.validate_plant("primary")
    # static gains follow from the section sums and lag chains
    f0 = oracles.freq_response(sec, 0.0)
    p0 = oracles.freq_response(pri, 0.0)
    assert abs(f0 - 0.2 / 1.1) < 1e-12
    assert abs(p0 - 4 * 0.078 / (1.2 * 1.3)) < 1e-12


def test_benchmark_secondary_peaks(default_config):
    sec = default_config.secondary()
    omegas = np.linspace(0.3, 5.0, 2000)
    mag = np.abs(freq_response_grid(sec, omegas))
    local_max = [
        omegas[i]
        for i in range(1, len(omegas) - 1)
        if mag[i] > mag[i - 1] and mag[i] > mag[i + 1]
    ]
    assert len(local_max) == 4
    for found, want in zip(local_max, (1.0, 2.0, 3.0, 4.0)):
        assert abs(found - want) < 0.15


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_zero_and_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    e = expm(np.eye(2))
    assert np.allclose(e, np.e * np.eye(2), rtol=1e-14)


def test_expm_nilpotent_closed_form():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_diagonal_closed_form():
    d = np.diag([-0.5, 2.0, 37.0])
    assert np.allclose(expm(d), np.diag(np.exp([-0.5, 2.0, 37.0])), rtol=1e-13)


@pytest.mark.parametrize(
    "scale,tol", [(1e-3, 1e-12), (1.0, 1e-12), (10.0, 1e-11), (100.0, 1e-9)]
)
def test_expm_matches_scipy_random(scale, tol):
    rng = np.random.default_rng(int(scale * 1000) + 7)
    for _ in range(5):
        n = int(rng.integers(1, 9))
        m = scale * rng.normal(size=(n, n)) / np.sqrt(n)
        ours = expm(m)
        ref = oracles.expm_ref(m)
        denom = max(1.0, float(np.abs(ref).max()))
        assert np.abs(ours - ref).max() / denom < tol


def test_expm_inverse_property():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(6, 6))
    prod = expm(m) @ expm(-m)
    assert np.abs(prod - np.eye(6)).max() < TOL.expm_inverse * np.abs(expm(m)).max()


def test_expm_semigroup_property():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(5, 5))
    lhs = expm(m * 0.7) @ expm(m * 0.3)
    rhs = expm(m)
    assert np.abs(lhs - rhs).max() < TOL.semigroup * max(1.0, np.abs(rhs).max())


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.inf]]))


# ---------------------------------------------------------------------------
# transition blocks


def test_vanloan_integrator_closed_form():
    integ = ContinuousStateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    vl = vanloan(integ, 1.0)
    assert abs(vl.Phi[0, 0] - 1.0) < 1e-15
    assert abs(vl.Gamma[0, 0] - 1.0) < 1e-14
    assert abs(vl.Lambda[0, 0] - 1.0) < 1e-14
    assert abs(vl.Theta[0, 0] - 0.5) < 1e-14


def test_vanloan_lag_closed_form():
    vl = vanloan(lag(1.0), 1.0)
    e1 = np.exp(-1.0)
    assert abs(vl.Phi[0, 0] - e1) < 1e-14
    assert abs(vl.Gamma[0, 0] - (1.0 - e1)) < 1e-14
    assert abs(vl.Lambda[0, 0] - (1.0 - e1)) < 1e-14
    # int_0^1 (1 - s) e^{-s} ds = e^{-1}
    assert abs(vl.Theta[0, 0] - e1) < 1e-14


@pytest.mark.parametrize("seed,t", [(31, 0.3), (32, 1.0), (33, 0.75)])
def test_vanloan_matches_quadrature(seed, t):
    rng = np.random.default_rng(seed)
    sys = oracles_plant(rng)
    vl = vanloan(sys, t)
    gamma, lam, theta = oracles.transition_integrals(sys.A, sys.B, sys.C, t)
    assert np.abs(vl.Phi - oracles.expm_ref(sys.A * t)).max() < TOL.vanloan_quadrature
    assert np.abs(vl.Gamma - gamma).max() < TOL.vanloan_quadrature
    assert np.abs(vl.Lambda - lam).max() < TOL.vanloan_quadrature
    assert np.abs(vl.Theta - theta).max() < TOL.vanloan_quadrature


def test_vanloan_derivative_identity():
    # d/dt Gamma(t) = exp(A t) B, checked by central differences
    rng = np.random.default_rng(34)
    sys = oracles_plant(rng)
    t, eps = 0.8, 1e-5
    hi = vanloan(sys, t + eps).Gamma
    lo = vanloan(sys, t - eps).Gamma
    want = oracles.expm_ref(sys.A * t) @ sys.B
    assert np.abs((hi - lo) / (2 * eps) - want).max() < 1e-8


def test_vanloan_rejects_bad_horizon():
    with pytest.raises(ValueError):
        vanloan(lag(), 0.0)
    with pytest.raises(ValueError):
        vanloan(lag(), -1.0)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon t"):
            vanloan(lag(), t)


# ---------------------------------------------------------------------------
# period Gramian


@pytest.mark.parametrize("pole", [1.0, 50.0, 700.0])
def test_period_gramian_lag_closed_form(pole):
    """A first-order lag in closed form, also where exp(pole t) would swamp
    an unhalved Van Loan exponential (50, 700): 1e-12 relative, entrywise."""
    t = 1.0
    period, W = period_gramian(lag(pole), t)
    # the output from state x under held u is x e^{-ps} + u (1 - e^{-ps}) / p
    e1 = -np.expm1(-pole * t) / pole
    e2 = -np.expm1(-2.0 * pole * t) / (2.0 * pole)
    cross = (e1 - e2) / pole
    want = np.array([[e2, cross], [cross, (t - 2.0 * e1 + e2) / pole ** 2]])
    assert np.all(np.abs(W - want) <= 1e-12 * np.abs(want))
    want_period = np.array([[np.exp(-pole * t), e1], [0.0, 1.0]])
    assert np.all(np.abs(period - want_period) <= 1e-12 * np.abs(want_period))


@pytest.mark.parametrize("seed,t", [(31, 0.3), (32, 1.0), (33, 0.75)])
def test_period_gramian_matches_quadrature(seed, t):
    rng = np.random.default_rng(seed)
    sys = oracles_plant(rng)
    period, W = period_gramian(sys, t)
    n = sys.nstates
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n:] = sys.A, sys.B
    cbar = np.append(sys.C[0], 0.0)

    def outer(s):
        row = cbar @ oracles.expm_ref(aug * s)
        return np.outer(row, row)

    want = quad_vec(outer, 0.0, t, epsabs=1e-12, epsrel=1e-12)[0]
    assert np.abs(W - want).max() < TOL.vanloan_quadrature
    vl = vanloan(sys, t)
    assert np.abs(period[:n, :n] - vl.Phi).max() < 1e-13
    assert np.abs(period[:n, n:] - vl.Gamma).max() < 1e-13
    assert np.abs(period[n:] - np.append(np.zeros(n), 1.0)).max() < 1e-13


def test_period_gramian_rejects_bad_horizon():
    for t in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon t"):
            period_gramian(lag(), t)

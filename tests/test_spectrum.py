"""Aliased energy spectrum, its peak bound, and the lag-domain cross-check."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid

import oracles
from ancsim import (
    ContinuousStateSpace,
    build_wiener,
    discretize_lifted,
    parseval_check,
    spectral_bound,
)
from ancsim import spectrum, statespace
from ancsim.config import SimConfig
from ancsim.tolerances import TOL
from oracles import u_spectrum, zoh_frequency_response


def lag(pole=1.0):
    return ContinuousStateSpace(A=[[-pole]], B=[[1.0]], C=[[1.0]])


def record_u(secondary, xd_samples, h, L):
    """Open-loop regressor blocks for a given reference sequence."""
    lift = discretize_lifted(secondary, h, L)
    eta = np.zeros(secondary.nstates)
    out = np.empty((len(xd_samples), L))
    for n, x in enumerate(xd_samples):
        eta, out[n] = oracles.fh_step(lift, eta, x)
    return out


# ---------------------------------------------------------------------------
# hold response and transforms


def test_hold_response_closed_form():
    h = 0.7
    assert abs(zoh_frequency_response(0.0, h) - h) < 1e-15
    om = np.array([0.3, 1.0, 4.0, -2.2])
    want = (1.0 - np.exp(-1j * om * h)) / (1j * om)
    got = zoh_frequency_response(om, h)
    assert np.abs(got - want).max() < 1e-14


def test_hold_response_zeros_at_sampling_multiples():
    h = 1.0
    om = 2.0 * np.pi * np.array([1.0, 2.0, 5.0])
    assert np.abs(zoh_frequency_response(om, h)).max() < 1e-15


def grid(grid_size, h):
    """The midpoint grid ``spectral_bound`` evaluates on."""
    return -np.pi / h + (np.arange(grid_size) + 0.5) * (2.0 * np.pi / h / grid_size)


def test_dtft_impulse_and_shift():
    om = np.linspace(-2.0, 2.0, 9)
    h = 1.0
    assert np.abs(oracles.dtft([1.0], om, h) - 1.0).max() < 1e-15
    shifted = oracles.dtft([0.0, 0.0, 1.0], om, h)
    want = np.exp(-2j * om * h)
    assert np.abs(shifted - want).max() < 1e-14
    with pytest.raises(ValueError):
        oracles.dtft([], om, h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dtft_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="non-finite"):
        oracles.dtft([1.0, bad, 0.5], np.linspace(-1.0, 1.0, 5), 1.0)


@pytest.mark.parametrize("n", [1, 2, 100, 2000])
def test_dtft_matches_dense_sum(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    h = 0.7
    om = grid(4096, h)
    want = oracles.dtft_dense(x, om, h)
    got = oracles.dtft(x, om, h)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("length", ["1", "40", "G", "2.5G"])
@pytest.mark.parametrize("grid_size", [2, 3, 64, 65, 4096])
def test_half_grid_transform_matches_dense_sum(grid_size, length):
    """The folded-record FFT equals the dense transform on the grid's w >= 0 half.

    Records longer than the grid ("2.5G") fold onto it. Tolerance: 1e-12 of
    sum |x|, the bound on the transform's modulus.
    """
    n = {"1": 1, "40": 40, "G": grid_size, "2.5G": int(2.5 * grid_size)}[length]
    x = np.random.default_rng(n + grid_size).normal(size=n)
    h = 0.7
    half = grid(grid_size, h)[grid_size // 2:]
    got = spectrum._half_grid_transform(x, grid_size)
    # 64 frequencies per dense product keeps the (frequencies x samples) matrix small
    want = np.concatenate([oracles.dtft_dense(x, half[i:i + 64], h) for i in range(0, half.size, 64)])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(x).sum()


def test_regressor_spectrum_is_product():
    sys = lag(1.0)
    om = np.array([0.0, 0.5, 2.0])
    got = u_spectrum(sys, 1.0, om, 1.0)
    want = (1.0 / (1j * om + 1.0)) * zoh_frequency_response(om, 1.0)
    assert np.abs(got - want).max() < 1e-14


def test_regressor_spectrum_matches_time_domain_transform():
    """u_spectrum equals the numerically transformed held impulse response."""
    sys = lag(1.0)
    h, refine, n_periods = 1.0, 256, 60
    x_held = np.zeros(n_periods)
    x_held[0] = 1.0
    y = oracles.held_output_fine(sys, x_held, h, refine)
    t = np.arange(y.size) * (h / refine)
    for w in (0.3, 1.0, 2.4):
        ref = trapezoid(y * np.exp(-1j * w * t), t)
        got = u_spectrum(sys, 1.0, np.array([w]), h)[0]
        assert abs(got - ref) < 1e-5


# ---------------------------------------------------------------------------
# aliased energy density


def test_bound_impulse_reference_near_dc():
    """Unit impulse through the unit-gain lag: S approaches 1 at DC."""
    bound = spectral_bound(lag(1.0), [1.0], h=1.0, grid_size=4096)
    i0 = int(np.argmin(np.abs(bound.omegas)))
    assert abs(bound.values[i0] - 1.0) < 1e-4
    assert bound.peak <= 1.0 + 1e-12
    assert abs(bound.mu_limit - 2.0 / bound.peak) < 1e-12


def test_bound_silent_record():
    bound = spectral_bound(lag(), np.zeros(8), h=1.0)
    assert bound.peak == 0.0
    assert bound.mu_limit == np.inf


def test_bound_grid_is_midpoint_partition():
    bound = spectral_bound(lag(), [1.0], h=2.0, grid_size=64)
    assert bound.omegas.size == 64
    assert abs(bound.spacing - 2.0 * np.pi / 2.0 / 64) < 1e-15
    # symmetric midpoints, no endpoint duplication
    assert abs(bound.omegas[0] + np.pi / 2.0 - 0.5 * bound.spacing) < 1e-12
    assert abs(bound.omegas[-1] - (np.pi / 2.0 - 0.5 * bound.spacing)) < 1e-12


def test_bound_alias_sum_dominates_single_term():
    sys = lag(0.7)
    om_probe = 1.3
    bound = spectral_bound(sys, [1.0], h=1.0, grid_size=512)
    i = int(np.argmin(np.abs(bound.omegas - om_probe)))
    w = bound.omegas[i]
    single = np.abs(u_spectrum(sys, 1.0, np.array([w]), 1.0)[0]) ** 2
    assert bound.values[i] >= single - 1e-15


def test_bound_alias_truncation_converged():
    """The truncated alias sums rise monotonically to the exact bound.

    A first-order lag has the slowest alias tail of a strictly proper plant
    (|F H0|^2 falls as w^-4), so its gap to the exact sum stays visible: it
    shrinks about 8x per doubling of the alias count, and at 32 aliases it
    is within ``TOL.alias_truncation`` of the peak.
    """
    sec = lag(1.0)
    xd = np.random.default_rng(51).normal(size=40)
    exact = spectral_bound(sec, xd, h=1.0, grid_size=1024)
    sums = [oracles.reference_spectral_bound(sec, xd, 1.0, grid_size=1024, n_alias=n)
            for n in (32, 64, 128)]
    for lo, hi in zip(sums, sums[1:]):
        assert np.all(lo.values <= hi.values)
    gaps = []
    for truncated in sums:
        assert np.all(truncated.values <= exact.values + 1e-12 * exact.peak)
        gaps.append(np.abs(exact.values - truncated.values).max())
    assert gaps[0] < TOL.alias_truncation * exact.peak
    assert gaps[0] > 4.0 * gaps[1] > 16.0 * gaps[2]


@pytest.mark.parametrize("plant", ["lag", "default", "zeta=1"])
def test_bound_equals_held_tone_energy(plant, default_config):
    """S / |Xd|^2 is the energy over one period of the steady response to a
    held tone, integrated by quadrature, near w = 0, mid-band and near pi/h.

    An impulse record has Xd = 1. zeta = 1 takes the stacked-solve path.
    """
    sec, h = {
        "lag": (lag(1.0), 0.7),
        "default": (default_config.secondary(), default_config.h),
        "zeta=1": (default_config.with_overrides(zeta=1.0).secondary(), default_config.h),
    }[plant]
    bound = spectral_bound(sec, [1.0], h, grid_size=64)
    for i in (32, 48, 63):
        want = oracles.held_tone_energy(sec, bound.omegas[i], h)
        assert abs(bound.values[i] - want) <= 1e-10 * want


def test_bound_input_validation():
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period h"):
            spectral_bound(lag(), [1.0], h=h)
    with pytest.raises(ValueError):
        spectral_bound(lag(), [1.0], h=1.0, grid_size=1)


def test_bound_rejects_non_finite_record():
    xd = np.ones(16)
    xd[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spectral_bound(lag(), xd, h=1.0)


def test_bound_rejects_empty_record():
    with pytest.raises(ValueError, match="empty"):
        spectral_bound(lag(), [], h=1.0)


@pytest.mark.parametrize("size, value, grid_size", [(16, 1e200, 4096), (16, 1e308, 4096), (3 * 4095, 1e308, 4095)])
def test_bound_rejects_overflowing_record(size, value, grid_size):
    """Finite samples whose energy density overflows raise, without a warning:
    in its square (1e200), in the FFT (1e308) or in folding three grid
    lengths of the record onto the grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="energy density overflows"):
            spectral_bound(SimConfig().secondary(), np.full(size, value), 1.0, grid_size=grid_size)


# The oracle's alias count at which its tail is under 1e-12 of the peak for
# the default secondary path at every damping and period below
CONVERGED_ALIASES = 64


@functools.lru_cache(maxsize=None)
def converged_reference(grid_size, h, zeta):
    sec = SimConfig().with_overrides(zeta=zeta).secondary()
    xd = np.random.default_rng(grid_size).normal(size=40)
    reference = oracles.reference_spectral_bound(sec, xd, h, grid_size=grid_size, n_alias=CONVERGED_ALIASES)
    return sec, xd, reference


@pytest.mark.parametrize("zeta", [0.1, 0.03, 1.0])
@pytest.mark.parametrize("h", [1.0, 0.7])
@pytest.mark.parametrize("n_alias", [0, 1, 16])
@pytest.mark.parametrize("grid_size", [2, 3, 64, 65, 1024])
def test_bound_matches_full_grid_reference(grid_size, n_alias, h, zeta):
    """The mirrored half grid equals the full-grid alias sum at
    ``CONVERGED_ALIASES``, and lies above the sum truncated at ``n_alias``.

    zeta = 1 gives repeated poles, so the secondary path has no modal form
    and the bound takes its stacked solve.
    """
    sec, xd, want = converged_reference(grid_size, h, zeta)
    assert (sec._modal is None) == (zeta == 1.0)
    got = spectral_bound(sec, xd, h, grid_size=grid_size)
    assert np.array_equal(got.omegas, want.omegas)
    assert np.abs(got.values - want.values).max() <= 1e-12 * want.peak
    assert abs(got.peak - want.peak) <= 1e-12 * want.peak
    assert abs(got.mu_limit - want.mu_limit) <= 1e-12 * want.mu_limit
    truncated = oracles.reference_spectral_bound(sec, xd, h, grid_size=grid_size, n_alias=n_alias)
    assert np.all(truncated.values <= got.values + 1e-12 * want.peak)


@pytest.mark.parametrize("zeta", [None, 1.0])
def test_bound_matches_reference_at_default_size(zeta, default_config):
    """The default grid on a benchmark-length record, against the oracle at 64 aliases.

    2000 periods of the default reference, as the benchmark records them;
    zeta = 1 takes the stacked-solve path.
    """
    config = default_config if zeta is None else default_config.with_overrides(zeta=zeta)
    sec = config.secondary()
    xd = oracles.sample_grid(config.make_generator(), config.h, 2000)
    got = spectral_bound(sec, xd, config.h, grid_size=4096)
    want = oracles.reference_spectral_bound(sec, xd, config.h, grid_size=4096, n_alias=64)
    assert np.abs(got.values - want.values).max() <= 1e-12 * want.peak
    assert abs(got.peak - want.peak) <= 1e-12 * want.peak


@pytest.mark.parametrize("chunk", [1, 7, 33, 100])
@pytest.mark.parametrize("grid_size", [64, 65])
def test_bound_alias_chunks_cover_every_term(grid_size, chunk, monkeypatch, default_config):
    """Grid chunks of ``chunk`` points cover the half grid's 32 or 33 points:
    1 and 7 split it, 33 and 100 take it whole.

    The budget is set in bytes as the modal path counts them, 16 (n + 1) a
    point; the stacked solve (zeta = 1) counts 16 (n + 1)^2 a point, so it
    takes chunk // (n + 1) points, at least 1.
    """
    sec = default_config.secondary()
    monkeypatch.setattr(spectrum, "_SOLVE_CHUNK_BYTES", 16 * (sec.nstates + 1) * chunk)
    xd = np.random.default_rng(chunk).normal(size=40)
    for plant in (sec, default_config.with_overrides(zeta=1.0).secondary()):
        got = spectral_bound(plant, xd, 0.7, grid_size=grid_size)
        want = oracles.reference_spectral_bound(plant, xd, 0.7, grid_size=grid_size, n_alias=64)
        assert np.abs(got.values - want.values).max() <= 1e-12 * want.peak


def test_bound_memory_stays_small(default_config):
    """One default-size bound on a fresh plant peaks at most 1 MiB of Python allocations.

    The grid chunks bound every temporary; a dense grid x alias evaluation
    would need about 4 MiB.
    """
    xd = oracles.sample_grid(default_config.make_generator(), default_config.h, 2000)
    sec = SimConfig().secondary()  # a config keeps its plants, and a plant its modal form
    tracemalloc.start()
    try:
        spectral_bound(sec, xd, default_config.h, grid_size=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


@pytest.mark.parametrize("zeta", [0.1, 1.0])
def test_bound_decomposes_secondary_once(zeta, monkeypatch):
    """One eigendecomposition per plant, modal form or not, and one
    exponential per bound."""
    eigs, exps = [], []
    real_eig, real_expm = np.linalg.eig, statespace.expm

    def counting_eig(a):
        eigs.append(np.shape(a))
        return real_eig(a)

    def counting_expm(m):
        exps.append(np.shape(m))
        return real_expm(m)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(statespace, "expm", counting_expm)
    # fresh: default_config's plant may hold its modal form
    sec = SimConfig().with_overrides(zeta=zeta).secondary()
    xd = np.random.default_rng(3).normal(size=40)
    spectral_bound(sec, xd, h=1.0, grid_size=256)
    assert len(eigs) == 1 and len(exps) == 1
    # the modal form is cached on the plant: a second bound decomposes nothing
    spectral_bound(sec, xd, h=0.5, grid_size=256)
    assert len(eigs) == 1 and len(exps) == 2


def test_bound_takes_no_alias_sum(monkeypatch, default_config):
    """``spectral_bound`` evaluates no transfer function on any alias."""
    def refuse(*args, **kwargs):
        raise AssertionError("freq_response_grid called")

    monkeypatch.setattr(statespace, "freq_response_grid", refuse)
    assert not hasattr(spectrum, "freq_response_grid")
    xd = np.random.default_rng(4).normal(size=40)
    for zeta in (0.1, 1.0):
        spectral_bound(default_config.with_overrides(zeta=zeta).secondary(), xd, 1.0)


def test_gram_eigenvalues_below_spectral_peak(default_config):
    """Blocked Gram tops out below the aliased-energy peak (decayed record)."""
    sec = default_config.secondary()
    gen = default_config.with_overrides(noise_decay_rates=(0.15,) * 4).make_generator()
    h, L, n_steps = 1.0, 8, 100
    xd = oracles.sample_grid(gen, h, n_steps)
    u_blocks = record_u(sec, xd, h, L)
    d_dummy = np.zeros((n_steps, L))
    problem = build_wiener(u_blocks, d_dummy, 8, float(n_steps), h, L)
    bound = spectral_bound(sec, xd, h)
    lam_top = float(np.linalg.eigvalsh(problem.Phi)[-1])
    assert lam_top <= bound.peak + 1e-9 * bound.peak


# ---------------------------------------------------------------------------
# lag-domain consistency


def decayed_problem_and_bound(grid_size=4096, L=8):
    config = SimConfig().with_overrides(noise_decay_rates=(0.15,) * 4)
    sec = config.secondary()
    gen = config.make_generator()
    h, n_steps = config.h, config.n_steps
    xd = oracles.sample_grid(gen, h, n_steps)
    u_blocks = record_u(sec, xd, h, L)
    problem = build_wiener(u_blocks, np.zeros((n_steps, L)), 8, config.T, h, L)
    bound = spectral_bound(sec, xd, h, grid_size=grid_size)
    return problem, bound


def test_parseval_lag_zero_entry():
    problem, bound = decayed_problem_and_bound()
    report = parseval_check(problem, bound)
    assert report.entry00_rel < TOL.parseval
    assert report.phi_spectral.shape == problem.Phi.shape
    # spectral reconstruction is a symmetric Toeplitz table
    phi_s = report.phi_spectral
    assert np.abs(phi_s - phi_s.T).max() == 0.0
    for m in range(phi_s.shape[0]):
        assert np.all(np.diagonal(phi_s, m) == phi_s[0, m])


def test_parseval_improves_with_refinement():
    _, coarse_bound = decayed_problem_and_bound()
    coarse_problem, _ = decayed_problem_and_bound()
    coarse = parseval_check(coarse_problem, coarse_bound)
    fine_problem, fine_bound = decayed_problem_and_bound(grid_size=8192, L=16)
    fine = parseval_check(fine_problem, fine_bound)
    assert fine.entry00_rel < coarse.entry00_rel

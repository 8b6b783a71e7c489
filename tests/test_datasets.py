"""Analytic densities, presets, and the particle CSV interchange format."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from wflow import datasets as ds


def test_standard_normal_logpdf_at_origin():
    assert ds.standard_gaussian(2).log_pdf(np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))


def test_two_component_mixture_logsumexp():
    a = 1.3
    mix = ds.GaussianMixture([0.5, 0.5],
                             [ds.Gaussian([a], [[1.0]]), ds.Gaussian([-a], [[1.0]])])
    # direct two-term evaluation
    component = -0.5 * np.log(2 * np.pi) - a**2 / 2
    expected = np.logaddexp(np.log(0.5) + component, np.log(0.5) + component)
    assert mix.log_pdf(np.zeros(1)) == pytest.approx(expected)


def test_fig10_preset_parameters():
    p = ds.preset_density("fig10-p")
    assert np.allclose(p.weights, [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose([c.mean for c in p.components],
                       [[-2.0, 2.0], [-1.5, 1.5], [-1.0, 1.0]])
    assert np.allclose([c.cov for c in p.components],
                       [0.75 * np.eye(2), 0.25 * np.eye(2), 0.75 * np.eye(2)])
    q = ds.preset_density("fig10-q")
    assert np.allclose(q.weights, [0.5, 0.5])
    assert np.allclose([c.mean for c in q.components], [[0.75, -1.5], [-2.0, -3.0]])
    assert np.allclose([c.cov for c in q.components],
                       [0.5 * np.eye(2), 0.5 * np.eye(2)])


def test_fig10_logpdf_at_first_component_mean():
    p = ds.preset_density("fig10-p")
    x = np.array([-2.0, 2.0])
    logs = [c.log_pdf(x) + np.log(w) for c, w in zip(p.components, p.weights)]
    expected = np.logaddexp.reduce(logs)
    assert p.log_pdf(x) == pytest.approx(expected)


def test_unknown_preset():
    with pytest.raises(KeyError):
        ds.preset_density("nope")


def test_standard_gaussian_moments():
    x = ds.preset_density("standard-gaussian", 2).sample(100_000, np.random.default_rng(0))
    assert np.linalg.norm(x.mean(axis=0)) <= 0.02
    assert np.abs(np.cov(x, rowvar=False) - np.eye(2)).max() <= 0.03


def test_sampling_determinism():
    a = ds.preset_density("fig10-p").sample(500, np.random.default_rng(7))
    b = ds.preset_density("fig10-p").sample(500, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_shifted_gaussian():
    density = ds.preset_density("standard-gaussian", 2, shift=(3.0, 0.0))
    x = density.sample(50_000, np.random.default_rng(1))
    assert np.allclose(x.mean(axis=0), [3.0, 0.0], atol=0.03)


def test_logsumexp_stable_for_far_components():
    mix = ds.GaussianMixture(
        [0.5, 0.5],
        [ds.Gaussian([0.0], [[1.0]]), ds.Gaussian([100.0], [[1.0]])])
    value = mix.log_pdf(np.zeros(1))
    assert np.isfinite(value)
    assert value == pytest.approx(np.log(0.5) - 0.5 * np.log(2 * np.pi))


@pytest.mark.parametrize("preset", ["fig10-p", "fig10-q", "checkerboard", "branch-tree"])
def test_sampler_pdf_chi_square(preset):
    # chi-square goodness of fit on a coarse 2-D grid at alpha = 0.01
    density = ds.preset_density(preset)
    rng = np.random.default_rng(0)
    m = 100_000
    x = density.sample(m, rng)
    edges_x = np.linspace(x[:, 0].min() - 1e-9, x[:, 0].max() + 1e-9, 9)
    edges_y = np.linspace(x[:, 1].min() - 1e-9, x[:, 1].max() + 1e-9, 9)
    counts, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=[edges_x, edges_y])
    # cell probabilities by dense midpoint quadrature inside each cell
    probs = np.zeros_like(counts)
    sub = 12
    for i in range(len(edges_x) - 1):
        xs = np.linspace(edges_x[i], edges_x[i + 1], sub + 1)
        xs = 0.5 * (xs[1:] + xs[:-1])
        wx = (edges_x[i + 1] - edges_x[i]) / sub
        for j in range(len(edges_y) - 1):
            ys = np.linspace(edges_y[j], edges_y[j + 1], sub + 1)
            ys = 0.5 * (ys[1:] + ys[:-1])
            wy = (edges_y[j + 1] - edges_y[j]) / sub
            grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
            with np.errstate(all="ignore"):
                pdf = np.exp(density.log_pdf(grid))
            probs[i, j] = pdf.sum() * wx * wy
    # merge everything outside the grid into a catch-all bucket
    outside = 1.0 - probs.sum()
    assert outside >= -1e-6
    keep = probs.ravel() * m >= 5
    expected = probs.ravel()[keep] * m
    observed = counts.ravel()[keep]
    chi2 = np.sum((observed - expected) ** 2 / expected)
    dof = keep.sum() - 1
    threshold = stats.chi2.ppf(0.99, dof)
    assert chi2 <= threshold, f"{preset}: chi2 {chi2:.1f} > {threshold:.1f} (dof {dof})"


def test_two_moons_sampler_shape():
    x = ds.preset_density("two-moons").sample(2000, np.random.default_rng(3))
    assert x.shape == (2000, 2)
    with pytest.raises(NotImplementedError):
        ds.preset_density("two-moons").log_pdf(np.zeros(2))


def test_particle_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ens = ds.ParticleEnsemble(rng.normal(size=(37, 3)))
    path = tmp_path / "particles.csv"
    ds.save_particles_csv(path, ens)
    back = ds.load_particles_csv(path)
    assert np.allclose(back.positions, ens.positions, atol=1e-15)


_FINITE_PARTICLES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
    elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None, max_examples=60)
@given(_FINITE_PARTICLES)
def test_particle_csv_round_trip_bit_exact(positions):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "particles.csv")
        ds.save_particles_csv(path, ds.ParticleEnsemble(positions))
        back = ds.load_particles_csv(path).positions
    assert back.shape == positions.shape
    assert back.tobytes() == positions.tobytes()  # bit for bit, signed zeros included


@settings(deadline=None, max_examples=40)
@given(_FINITE_PARTICLES, st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_particle_csv_nonfinite_cell_rejected(positions, data, bad):
    row = data.draw(st.integers(0, positions.shape[0] - 1))
    col = data.draw(st.integers(0, positions.shape[1] - 1))
    positions = positions.copy()
    positions[row, col] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "particles.csv")
        ds.save_particles_csv(path, ds.ParticleEnsemble(positions))
        with pytest.raises(ValueError, match="particles.csv") as err:
            ds.load_particles_csv(path)
    assert f"row {row + 1}, column {col + 1}" in str(err.value)


def test_gaussian_kl_closed_form():
    p = ds.Gaussian([0.0], [[4.0]])
    q = ds.standard_gaussian(1)
    assert p.kl_to(q) == pytest.approx(0.5 * (4 - 1 - np.log(4)))


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        ds.GaussianMixture([0.7, 0.7], [ds.Gaussian([0.0], [[1.0]])] * 2)

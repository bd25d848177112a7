import math

import numpy as np
import pytest
from scipy import integrate, stats

from selbounds import AlphaOutOfRange, InputError, parse_law
from selbounds.laws import ChiSquare, Exponential, Normal, Uniform


@pytest.mark.parametrize("df", [1, 1.25, 1.5, 2, 5, 7.5])
def test_chi2_cdf_matches_scipy(df):
    law = ChiSquare(df)
    xs = np.array([0.01, 0.3, 1.0, 1.386, 3.46, 4.351, 10.0, 30.0])
    assert np.max(np.abs(law.cdf(xs) - stats.chi2.cdf(xs, df))) < 1e-12


@pytest.mark.parametrize("df", [1, 2, 5])
def test_chi2_ppf_inverts_to_tolerance(df):
    law = ChiSquare(df)
    us = np.array([1e-6, 0.01, 0.25, 0.5, 0.9, 0.999, 1 - 2.5e-6])
    xs = law.ppf(us)
    # contract: the inversion residual in probability is far below 1e-10
    assert np.max(np.abs(law.cdf(xs) - us)) < 1e-10
    assert np.max(np.abs(xs - stats.chi2.ppf(us, df))) < 1e-7


@pytest.mark.parametrize("df", [2, 5])
def test_chi2_ppf_deep_in_the_first_panel(df):
    # u far below the first panel's mass: the start must follow the power law
    us = np.array([1e-300, 1e-100])
    ref = stats.chi2.ppf(us, df)
    assert np.max(np.abs(ChiSquare(df).ppf(us) - ref) / ref) <= 1e-12


GRID = (np.arange(200_001) + 0.5) / 200_001   # the worked example's midpoint grid


def test_chi2_ppf_matches_closed_form_on_the_example_grid():
    # chi2(2) is exponential(1/2): its quantile is -2 log(1 - u)
    exact = -2.0 * np.log1p(-GRID)
    assert np.max(np.abs(ChiSquare(2).ppf(GRID) - exact) / exact) <= 1e-10


@pytest.mark.parametrize("df", [1, 2, 5, 7.5])
def test_chi2_ppf_round_trips_to_rounding(df):
    law = ChiSquare(df)
    assert np.max(np.abs(law.cdf(law.ppf(GRID)) - GRID)) <= 1e-14


@pytest.mark.parametrize("df", [1, 2, 5, 7.5])
def test_chi2_ppf_newton_converges_in_few_sweeps(df, monkeypatch):
    # Newton from the in-panel interpolation settles nearly every point in two
    # sweeps and the last stragglers within six; a bracket test that rejects a
    # step landing on an edge bisects for 40 and more
    law = ChiSquare(df)
    sweeps = []
    real = law._partial
    monkeypatch.setattr(law, "_partial", lambda t0, t1: sweeps.append(t0.size) or real(t0, t1))
    law.ppf(GRID[::50])   # one block of 4001 points spread over (0, 1)
    assert len(sweeps) <= 8
    assert sum(sweeps) <= 2.2 * sweeps[0]


def test_chi2_ppf_keeps_shape_and_far_tails():
    law = ChiSquare(5)
    grid = np.array([[0.1, 0.5], [0.7, 0.9]])
    assert law.ppf(grid).shape == (2, 2)
    assert np.array_equal(law.ppf(grid).ravel(), law.ppf(grid.ravel()))
    # underflowed panel masses and densities at the low end, the last panel at
    # the top: no warning, finite and ordered; 1e-14 still to 1e-12 relative
    us = np.array([1e-300, 1e-30, 1e-14, np.nextafter(1.0, 0.0)])
    xs = law.ppf(us)
    assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)
    assert abs(xs[2] - stats.chi2.ppf(1e-14, 5)) <= 1e-12 * xs[2]


def test_chi2_median_values():
    assert ChiSquare(2).ppf(np.array([0.5]))[0] == pytest.approx(2 * math.log(2), abs=1e-9)
    assert ChiSquare(5).ppf(np.array([0.5]))[0] == pytest.approx(4.35146, abs=1e-4)


def test_chi2_mean_is_df_and_matches_quadrature():
    law = ChiSquare(5)
    assert law.mean() == 5.0
    numeric = integrate.quad(lambda x: x * stats.chi2.pdf(x, 5), 0, np.inf, limit=200)[0]
    assert numeric == pytest.approx(5.0, abs=1e-8)


def test_normal_roundtrip():
    law = Normal(1.5, 2.0)
    us = np.linspace(1e-9, 1 - 1e-9, 501)
    assert np.max(np.abs(law.ppf(us) - stats.norm.ppf(us, 1.5, 2.0))) < 1e-9
    xs = np.linspace(-9, 12, 101)
    assert np.max(np.abs(law.cdf(xs) - stats.norm.cdf(xs, 1.5, 2.0))) < 1e-14


def test_exponential_and_uniform_closed_forms():
    e = Exponential(0.5)
    assert e.ppf(np.array([0.5]))[0] == pytest.approx(2 * math.log(2), abs=1e-13)
    assert e.mean() == 2.0
    u = Uniform(-1.0, 3.0)
    assert u.ppf(np.array([0.25]))[0] == 0.0
    assert u.cdf(np.array([1.0]))[0] == 0.5
    assert u.mean() == 1.0


def test_ppf_domain_checks():
    for law in (ChiSquare(3), Normal(0, 1), Exponential(1), Uniform(0, 1)):
        with pytest.raises(AlphaOutOfRange):
            law.ppf(np.array([0.0]))
        with pytest.raises(AlphaOutOfRange):
            law.ppf(np.array([1.0]))


def test_parse_law():
    assert parse_law("chi2(5)").label() == "chi2(5)"
    assert parse_law(" uniform( 0 , 1 ) ").label() == "uniform(0,1)"
    assert parse_law("exponential(1.5)").mean() == pytest.approx(1 / 1.5)
    assert parse_law("normal(0,2)").label() == "normal(0,2)"
    for bad in ("chi2", "chi2()", "nope(1)", "uniform(1)", "uniform(2,1)"):
        with pytest.raises(InputError):
            parse_law(bad)

"""The squared bounds against the exact expected squared error of ``oracle.py``.

The oracle propagates the mean and second moment of ``x_k - x_ls`` under the
kernel's own row probabilities, so a bound is checked at every record with
no Monte-Carlo slack, only a relative rounding tolerance.  Its fixed point,
the exact limit as k grows, checks every horizon at k = infinity.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisyrk import (
    LinearSystem,
    RkConfig,
    Spacing,
    SpectrumSpec,
    ExperimentConfig,
    additive_noise,
    bound_additive,
    evaluate_bound,
    generate_system,
    initial_iterates,
    multiplicative_noise,
    partial_consistent_noise,
    pseudoinverse,
    run_table2,
    scaled_condition_number,
    svd,
)
from noisyrk.experiments import build_noisy
from noisyrk.kaczmarz import record_points
from oracle import expected_squared_error, stationary_squared_error

ROUNDING = 1e-12


def test_oracle_is_the_enumerated_expectation():
    # every row sequence of up to 4 steps, weighted by its probability; row 1 is zero, so never drawn
    a = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.5, 2.0]])
    b = a @ np.array([0.7, -1.3])
    base = LinearSystem(a=a, b=b, x_ls=pseudoinverse(a) @ b)
    noisy = additive_noise(base, 0.2, 0.3, seed=2)
    a_tilde = noisy.a_tilde.copy()
    a_tilde[1] = 0.0
    noisy = dataclasses.replace(noisy, a_tilde=a_tilde)
    x0s = np.array([[2.0, 1.0], [-1.0, 0.5]])
    w = np.einsum("ij,ij->i", a_tilde, a_tilde)
    p = w / w.sum()
    rows = np.flatnonzero(w)
    exact = []
    for k in range(5):
        total = 0.0
        for x0 in x0s:
            for seq in itertools.product(rows, repeat=k):
                x, prob = x0.copy(), 1.0
                for i in seq:
                    x = x - (a_tilde[i] @ x - noisy.b_tilde[i]) / w[i] * a_tilde[i]
                    prob *= p[i]
                d = x - base.x_ls
                total += prob * (d @ d) / len(x0s)
        exact.append(total)
    oracle = expected_squared_error(noisy, x0s, range(5))
    np.testing.assert_allclose(oracle, exact, rtol=1e-13)


@st.composite
def spectra(draw) -> SpectrumSpec:
    """Any shape up to 40 x 20, any rank, even or flat-top spacing."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(1, 40))
    r = draw(st.integers(1, min(m, n)))
    lo = draw(st.floats(0.5, 2.0))
    hi = lo * draw(st.floats(1.01, 10.0))
    spacing = draw(st.sampled_from([Spacing.EVEN, Spacing.FLAT_TOP] if r >= 2 else [Spacing.EVEN]))
    return SpectrumSpec(m=m, n=n, r=r, sigma_min=lo, sigma_max=hi, spacing=spacing)


@st.composite
def instances(draw):
    """A noisy system of any shape and rank, its (trials, n) starts, a record grid and a squared bound kind that applies.

    The starts are zero, in the range of a_tilde^T, or free standard-normal
    draws.  On a wide or rank-deficient a_tilde, ``x_0 - x_ls`` can leave its
    row space, and every kind then carries that part in its horizon.
    """
    kind = draw(st.sampled_from(["noiseless", "rhs_noise", "additive", "multiplicative"]))
    spec = draw(spectra())
    seed = draw(st.integers(0, 1000))
    base = generate_system(spec, seed)
    level = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    sigma_a = draw(level) if kind in ("additive", "multiplicative") else 0.0
    sigma_b = draw(level) if kind != "noiseless" else 0.0
    if kind == "multiplicative":
        noisy = multiplicative_noise(base, sigma_a, sigma_b, draw(st.booleans()), draw(st.booleans()), seed=seed)
    else:
        noisy = additive_noise(base, sigma_a, sigma_b, seed=seed)
    cfg = RkConfig(
        max_iterations=draw(st.integers(1, 200)), trials=draw(st.integers(1, 3)),
        record_stride=draw(st.integers(1, 40)), seed=seed,
    )
    x0_mode = draw(st.sampled_from(["zero", "range", "free"]))
    if x0_mode == "free":
        x0s = np.random.default_rng(draw(st.integers(0, 1000))).standard_normal((cfg.trials, spec.n))
    else:
        x0s = initial_iterates(noisy.a_tilde, dataclasses.replace(cfg, x0_mode=x0_mode))
    return kind, noisy, x0s, record_points(cfg.max_iterations, cfg.record_stride)


def _fixed(kind: str, spec: SpectrumSpec, seed: int, noise):
    """An instance of 1000 steps recorded every 100, from ten ``range`` starts of seed 4."""
    noisy = noise(generate_system(spec, seed))
    cfg = RkConfig(max_iterations=1000, trials=10, record_stride=100, seed=4)
    return kind, noisy, initial_iterates(noisy.a_tilde, cfg), record_points(cfg.max_iterations, cfg.record_stride)


# a wide system: x_ls leaves the row space of a_tilde; without its null-space part the bound
# reads 0.0175 against the exact 0.5128 at k = 1000
WIDE_ADDITIVE = _fixed("additive", SpectrumSpec(m=5, n=19, r=3, sigma_min=1, sigma_max=5.3049), 38,
                       lambda base: additive_noise(base, 0.5, 0.01, seed=2))
# rank 2 of 3 with F on: the row space of a_tilde turns away from that of A (0.0076 against 0.0201 without it)
RANK_DEFICIENT_MULTIPLICATIVE = _fixed(
    "multiplicative", SpectrumSpec(m=4, n=3, r=2, sigma_min=1, sigma_max=3.832), 45,
    lambda base: multiplicative_noise(base, 0.1, 0.0, seed=2),
)
# rank 10 of 20, noise-free, twenty free starts: without the null-space part the bound reads
# 2.8e-29 against the exact 8.667 at k = 3000
FREE_NOISELESS = (
    "noiseless",
    additive_noise(generate_system(SpectrumSpec(m=30, n=20, r=10, sigma_min=1, sigma_max=3), 3), 0.0, 0.0, seed=3),
    np.random.default_rng(5).standard_normal((20, 20)),
    record_points(3000, 300),
)


@settings(max_examples=100, deadline=None)
@given(instances())
@example(WIDE_ADDITIVE)
@example(RANK_DEFICIENT_MULTIPLICATIVE)
@example(FREE_NOISELESS)
def test_squared_bounds_dominate_the_exact_expected_error(instance):
    kind, noisy, x0s, ks = instance
    curve = evaluate_bound(kind, noisy, x0s, ks)
    expected = expected_squared_error(noisy, x0s, ks)
    # relative to E||e_k||^2; where a rank-one a_tilde makes the exact value 0 (rate 0, no
    # horizon), the oracle keeps a rounding residue of at most ~1e-16 of E||e_0||^2
    slack = ROUNDING * np.maximum(expected, 1e-2 * expected[0])
    assert np.all(curve.values >= expected - slack), (kind, curve.values - expected)


def test_the_wide_additive_bound_meets_the_exact_value():
    kind, noisy, x0s, ks = WIDE_ADDITIVE
    curve = evaluate_bound(kind, noisy, x0s, ks)
    assert curve.values[-1] >= max(0.5128, expected_squared_error(noisy, x0s, ks)[-1])


@settings(max_examples=100, deadline=None)
@given(spectra(), st.integers(0, 1000), st.sampled_from(["zero", "range"]), st.integers(1, 60))
def test_criterion_8_every_noiseless_step_contracts_by_the_rate(spec, seed, x0_mode, steps):
    # from a start in the row space, E||e_{k+1}||^2 <= (1 - 1/R) E||e_k||^2 at every step k
    noisy = additive_noise(generate_system(spec, seed), 0.0, 0.0, seed=seed)
    cfg = RkConfig(max_iterations=steps, trials=3, seed=seed, x0_mode=x0_mode)
    expected = expected_squared_error(noisy, initial_iterates(noisy.a_tilde, cfg), range(steps + 1))
    rate = 1.0 - 1.0 / scaled_condition_number(noisy.base.factors)
    slack = ROUNDING * np.maximum(expected[1:], 1e-2 * expected[0])
    assert np.all(expected[1:] <= rate * expected[:-1] + slack), expected[1:] / expected[:-1]


@st.composite
def well_conditioned(draw):
    """A noisy system up to 8 x 4 of any shape and rank whose Rt stays below about 100, and its starts.

    The starts are zero, in the range of a_tilde^T, or free standard-normal draws, as in ``instances``.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(m, n)))
    lo = draw(st.floats(1.0, 2.0))
    spec = SpectrumSpec(m=m, n=n, r=r, sigma_min=lo, sigma_max=lo * draw(st.floats(1.01, 1.5)))
    seed = draw(st.integers(0, 1000))
    base = generate_system(spec, seed)
    multiplicative = draw(st.booleans())
    # additive matrix noise on a rank-deficient A would give a_tilde singular values near 0
    level = st.one_of(st.just(0.0), st.floats(1e-3, 0.05))
    sigma_a = draw(level) if multiplicative or r == min(m, n) else 0.0
    sigma_b = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    if multiplicative:
        noisy = multiplicative_noise(base, sigma_a, sigma_b, draw(st.booleans()), draw(st.booleans()), seed=seed)
    else:
        noisy = additive_noise(base, sigma_a, sigma_b, seed=seed)
    trials, x0_mode = draw(st.integers(1, 3)), draw(st.sampled_from(["zero", "range", "free"]))
    if x0_mode == "free":
        return noisy, np.random.default_rng(seed).standard_normal((trials, n))
    return noisy, initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=trials, seed=seed, x0_mode=x0_mode))


@settings(max_examples=30, deadline=None)
@given(well_conditioned())
@example(FREE_NOISELESS[1:3])
def test_the_stationary_error_is_the_recursion_at_large_k(instance):
    # at k with (1 - 1/Rt)^k below 1e-11 the recursion has reached its limit to that relative part of E||e_0||^2
    noisy, x0s = instance
    rate = 1.0 - 1.0 / scaled_condition_number(noisy.a_tilde)
    k = 1 if rate == 0.0 else int(np.ceil(np.log(1e-11) / np.log(rate)))
    first, last = expected_squared_error(noisy, x0s, [0, k])
    np.testing.assert_allclose(stationary_squared_error(noisy, x0s), last, rtol=1e-9, atol=1e-10 * first)


@settings(max_examples=50, deadline=None)
@given(instances())
@example(WIDE_ADDITIVE)
@example(RANK_DEFICIENT_MULTIPLICATIVE)
@example(FREE_NOISELESS)
def test_every_squared_horizon_holds_at_k_infinity(instance):
    # the limit of a noise-free system is 0 up to a rounding residue of E||e_0||^2
    kind, noisy, x0s, _ = instance
    curve = evaluate_bound(kind, noisy, x0s, [0])
    limit = stationary_squared_error(noisy, x0s)
    assert curve.horizon >= limit - 1e-9 * limit - ROUNDING * curve.initial_error, (kind, curve.horizon, limit)


def squared_mean_at_the_limit(noisy, x0s) -> float:
    """``||x_nls - x_ls + P_null x0_bar||^2``: the squared limit of ``E[x_k - x_ls]``, with P_null the projector
    onto the null space of a_tilde and x0_bar the mean start."""
    v = svd(noisy.a_tilde).v
    x0_bar = np.mean(x0s, axis=0)
    d = noisy.analysis.x_nls - noisy.base.x_ls + x0_bar - v @ (v.T @ x0_bar)
    return float(d @ d)


@settings(max_examples=50, deadline=None)
@given(instances())
@example(WIDE_ADDITIVE)
@example(RANK_DEFICIENT_MULTIPLICATIVE)
@example(FREE_NOISELESS)
def test_the_stationary_error_is_at_least_its_squared_mean(instance):
    # E||e||^2 >= ||E e||^2 at the limit, with the slack of the horizons at k = infinity
    _, noisy, x0s, _ = instance
    e0 = x0s - noisy.base.x_ls
    initial = float(np.mean(np.einsum("ij,ij->i", e0, e0)))
    lower, limit = squared_mean_at_the_limit(noisy, x0s), stationary_squared_error(noisy, x0s)
    assert lower <= limit + 1e-9 * limit + ROUNDING * initial, (lower, limit)


@pytest.mark.parametrize("noisy", [
    additive_noise(generate_system(SpectrumSpec(m=12, n=12, r=12, sigma_min=1, sigma_max=4), 8), 0.1, 0.2, seed=8),
    partial_consistent_noise(generate_system(SpectrumSpec(m=30, n=10, r=10, sigma_min=1, sigma_max=4), 9), 0.4, seed=9),
], ids=["square_additive", "tall_partial_consistent"])
def test_a_consistent_full_rank_limit_is_its_squared_mean(noisy):
    # every row holds at x_nls, so the iterates settle there and the variance vanishes
    x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=3, seed=6))
    np.testing.assert_allclose(stationary_squared_error(noisy, x0s), squared_mean_at_the_limit(noisy, x0s), rtol=1e-9)


def test_theo_horizon_holds_at_k_infinity_on_the_sweep():
    # the table2-sweep benchmark workload's system, grid and starts at seed 1
    cfg = ExperimentConfig(
        spectrum=SpectrumSpec(m=100, n=50, r=50, sigma_min=5.0, sigma_max=50.0),
        rk=RkConfig(max_iterations=1, trials=10, seed=1), master_seed=1,
        grid=((0.0, 0.0), (0.0, 1.0), (0.01, 0.01), (0.1, 0.1), (0.5, 0.5), (1.0, 1.0)),
    )
    base = generate_system(cfg.spectrum, cfg.master_seed)
    for row in run_table2(cfg):
        noisy = build_noisy(cfg.noise, base, row.sigma_a, row.sigma_b, cfg.master_seed)
        x0s = initial_iterates(noisy.a_tilde, cfg.rk)
        curve, limit = bound_additive(noisy, x0s, [0]), stationary_squared_error(noisy, x0s)
        assert row.theoretical_horizon == curve.horizon
        assert curve.horizon >= limit - 1e-9 * limit - ROUNDING * curve.initial_error, (row, limit)


def test_criterion_4_horizons_hold_at_k_infinity():
    # criterion 4's seven systems and starts: there the horizons are checked against 95% of Monte-Carlo records
    add = generate_system(SpectrumSpec(m=200, n=100, r=100, sigma_min=5.0, sigma_max=50.0), 17)
    mult = generate_system(SpectrumSpec(m=200, n=100, r=100, sigma_min=1.0, sigma_max=10.0), 19)
    cases = [("additive", additive_noise(add, sa, sb, 17), 18)
             for sa, sb in ((0.0, 0.01), (0.01, 0.01), (0.1, 0.1), (0.5, 0.5))]
    cases += [("multiplicative", multiplicative_noise(mult, 0.05, 0.05, use_e=e, use_f=f, seed=19), 20)
              for e, f in ((True, False), (False, True), (True, True))]
    for kind, noisy, seed in cases:
        x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=50, seed=seed))
        curve, limit = evaluate_bound(kind, noisy, x0s, [0]), stationary_squared_error(noisy, x0s)
        assert curve.horizon >= limit - 1e-9 * limit - ROUNDING * curve.initial_error, (kind, curve.horizon, limit)

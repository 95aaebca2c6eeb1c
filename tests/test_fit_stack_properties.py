"""Stacked HOM and fringe fit kernels against the scalar fits they replace.

`hom_fit_stack` and `fringe_fit_stack` fit a whole Monte Carlo run in one
call.  The one-scan fits they replaced are kept below as the oracles: on
random stacks of seeded Poisson scans every kernel row must equal the
scalar fit of that scan, carry the same `converged` flag, equal the same
row fitted alone, and the kernel must raise whenever a scalar fit raises.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import biphoton as bp
from swapsim import experiments as ex
from swapsim import qcore as qc
from swapsim import tomography as tm
from swapsim.config import ExperimentConfig

# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
V_TOL = 1e-9       # visibilities, oracle vs kernel
PARAM_TOL = 1e-6   # every other parameter, absolute
ALONE_TOL = 1e-12  # a row in a stack vs the same row fitted alone

HOM_TAUS = np.linspace(-12.0, 12.0, 49)
FRINGE_PHIS = np.linspace(0.0, 2.0 * np.pi, 17)
# counts per point at the measured-config defaults: HOM wing (pair rate x
# 1/2 x 160 s / 49 points) and background, fringe pair counts per 30 s point
# and background
HOM_WING, HOM_BG = 5224.5, 1.306
FRINGE_PAIRS, FRINGE_BG = 96000.0 * 0.19, 12.0
SCALES = (1.0, 0.1)


# ---------------------------------------------------------------------------
# oracles: the scalar fits, one scan at a time
# ---------------------------------------------------------------------------

def hom_oracle(taus, vals, background):
    """The scalar Levenberg-Marquardt dip fit that `hom_fit_stack` replaced,
    started as the kernel starts and evaluated in the kernel's order of
    operations and product shapes (J^T J as a (1, 4, m) @ (1, m, 4)
    product, r.r as a 1 x m @ m x 1 product, the solve on a (1, 4, 4)
    stack): along the flat valley of a poorly resolved dip a last-bit
    difference grows into parameter differences above the tolerances."""
    if len(taus) < 4:
        raise ValueError("need at least 4 scan points")
    order = np.argsort(taus)
    taus, vals = taus[order], vals[order]
    span = taus.max() - taus.min()
    base0 = float(np.percentile(vals, 90))
    depth0 = base0 - float(vals.min())
    center0 = float(taus[np.argmin(vals)])
    if depth0 <= 0 or span == 0:
        raise ValueError("degenerate scan: no dip wings to fit")
    # the Gaussian of the dip's area: the trapezoid of the counts below the
    # wing level over the sorted delays, clipped to [mean spacing, span]
    below = np.maximum(base0 - vals, 0.0)
    area = (np.diff(taus) * (below[:-1] + below[1:])).sum() * 0.5
    width0 = min(max(area / (depth0 * np.sqrt(2.0 * np.pi)), span / (len(taus) - 1)), span)
    weights = 1.0 / np.sqrt(np.maximum(vals, 1.0))

    def normal_equations(p):
        base, depth, center, width = p
        u = (taus - center) / width
        g = np.exp(u * u * -0.5)
        r = (base - vals - depth * g) * weights
        minus_sg = -(weights * g)
        d_center = depth / width * minus_sg * u
        jac_t = np.array([weights, minus_sg, d_center, d_center * u])[None]
        return (jac_t @ np.swapaxes(jac_t, 1, 2))[0], -(jac_t @ r[None, :, None])[0], \
            (r[None] @ r[:, None])[0, 0]

    def norm(x):
        return np.sqrt((x[None] @ x[:, None])[0, 0])

    p = np.array([base0, depth0, center0, width0])
    jtj, rhs, cost = normal_equations(p)
    lam, converged, scale = 1e-3, False, np.zeros(4)
    for _ in range(100):
        scale = np.maximum(scale, np.sqrt(np.diag(jtj)))
        try:
            step = np.linalg.solve((jtj + lam * np.diag(scale**2))[None], rhs[None])[0, :, 0]
        except np.linalg.LinAlgError:
            break
        jtj_new, rhs_new, cost_new = normal_equations(p + step)
        if cost_new < cost:
            p, jtj, rhs, cost, lam = p + step, jtj_new, rhs_new, cost_new, lam / 10.0
        else:
            lam *= 10.0
        if norm(scale * step) <= bp._LM_XTOL * norm(scale * p):
            converged = True
            break
    base, depth, center, width = p
    width = abs(width)
    if width < span / (len(taus) - 1):
        converged = converged and width >= (1.0 - 1e-9) * np.diff(np.unique(taus)).min()
    converged = converged and depth > 0
    if base <= 0:
        raise ValueError("degenerate scan: fitted wing level is not positive")
    if background >= base:
        raise ValueError("background exceeds the fitted wing level")
    return bp.HomFit(depth / base, depth / (base - background), width, center,
                     base, depth, converged)


def _cosine_oracle(phis, vals):
    x = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    xw = x / np.maximum(vals, 1.0)[:, None]
    try:
        cov = np.linalg.inv(x.T @ xw)
    except np.linalg.LinAlgError:
        return np.nan, np.nan, np.nan, np.nan, False
    a, b, c = cov @ (xw.T @ vals)
    finite = bool(np.isfinite([a, b, c]).all())
    if not a > 0:
        return float(a), 0.0, 0.0, np.nan, finite
    v = float(np.hypot(b, c) / a)
    d = float(np.arctan2(-c, b))
    grad = np.array([-v, np.cos(d), -np.sin(d)]) / a
    return float(a), v, d, float(np.sqrt(max(grad @ cov @ grad, 0.0))), finite


def fringe_oracle(phis, vals, background):
    """The scalar closed-form cosine fit that `fringe_fit_stack` replaced."""
    if len(phis) < 5:
        raise ValueError("need at least 5 fringe points")
    if phis.max() - phis.min() < 2 * np.pi * 0.99:
        raise ValueError("scan must span at least one period")
    a, v_raw, d, v_err, ok = _cosine_oracle(phis, vals)
    ok = ok and a > 0 and 0.0 <= v_raw <= 1.0
    v_sub = v_raw
    if background > 0:
        a_sub, v_sub, _, _, ok_sub = _cosine_oracle(phis, np.maximum(vals - background, 0.0))
        ok = ok and ok_sub and a_sub > 0 and 0.0 <= v_sub <= 1.0
    return tm.FringeFit(d, a, v_raw, v_sub, v_err, ok)


# ---------------------------------------------------------------------------
# seeded Poisson scans
# ---------------------------------------------------------------------------

def hom_scan(seed, kind, scale):
    """Poisson HOM scan: a dip well inside the scan, one near its edge, or
    one narrower than the 0.5 ps delay spacing."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 0.99)
    if kind == "edge":
        center, tc = rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 12.0), rng.uniform(0.5, 2.0)
    elif kind == "narrow":
        center, tc = rng.uniform(-2.0, 2.0), rng.uniform(0.02, 0.2)
    else:
        center, tc = rng.uniform(-2.0, 2.0), rng.uniform(1.5, 4.5)
    dip = np.exp(-((HOM_TAUS - center) ** 2) / (2.0 * tc * tc))
    return rng.poisson(scale * (HOM_WING * (1.0 - v * dip) + HOM_BG))


def fringe_scan(seed, kind, scale):
    """Poisson fringe scan, or an all-zero one."""
    if kind == "zero":
        return np.zeros(len(FRINGE_PHIS), dtype=np.int64)
    rng = np.random.default_rng(seed)
    a = 0.5 * FRINGE_PAIRS * rng.uniform(0.05, 1.0)
    v, delta = rng.uniform(0.5, 0.999), rng.uniform(-np.pi, np.pi)
    return rng.poisson(scale * (a * (1.0 + v * np.cos(FRINGE_PHIS + delta)) + FRINGE_BG))


def stacks(scan, kinds, backgrounds):
    """(counts (n, m), background): 1-5 scans of mixed kinds and scales."""
    row = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(kinds),
                    st.sampled_from(SCALES))
    return st.tuples(st.lists(row, min_size=1, max_size=5),
                     st.sampled_from(backgrounds)).map(
        lambda t: (np.array([scan(*r) for r in t[0]]), t[1]))


HOM_STACKS = stacks(hom_scan, ("inside", "edge", "narrow"), (0.0, HOM_BG, 0.1 * HOM_BG))
FRINGE_STACKS = stacks(fringe_scan, ("fringe", "fringe", "zero"),
                       (0.0, FRINGE_BG, 0.1 * FRINGE_BG))


def _oracle_or_error(oracle, grid, vals, background):
    try:
        return oracle(grid, vals.astype(float), background)
    except ValueError as exc:
        return str(exc)


def _fields(fit):
    return {name: np.asarray(value) for name, value in fit._asdict().items()}


def _assert_matches_oracle(kernel, oracle, grid, counts, background, v_fields):
    """Each row of `kernel(grid, counts, background)` equals the scalar fit
    of that scan, or the kernel raises one of the scalar fits' errors."""
    per_trial = [_oracle_or_error(oracle, grid, c, background) for c in counts]
    errors = {r for r in per_trial if isinstance(r, str)}
    if errors:
        with pytest.raises(ValueError) as info:
            kernel(grid, counts, background)
        assert str(info.value) in errors
        return None
    fit = kernel(grid, counts, background)
    got = _fields(fit)
    for name in got:
        want = np.array([getattr(r, name) for r in per_trial])
        if name == "converged":
            np.testing.assert_array_equal(got[name], want)
        else:
            tol = V_TOL if name in v_fields else PARAM_TOL
            np.testing.assert_allclose(got[name], want, rtol=0, atol=tol, err_msg=name)
    return fit


def _assert_rows_match_alone(kernel, grid, counts, background, fit):
    got = _fields(fit)
    for k in range(len(counts)):
        alone = _fields(kernel(grid, counts[k:k + 1], background))
        for name, value in alone.items():
            np.testing.assert_allclose(got[name][k:k + 1], value, rtol=ALONE_TOL,
                                       atol=ALONE_TOL, err_msg=name)


HOM_V = {"visibility_raw", "visibility_subtracted"}
FRINGE_V = {"visibility", "visibility_raw", "visibility_subtracted", "visibility_stderr"}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(HOM_STACKS)
def test_hom_fit_stack_matches_scalar_fits(stack):
    counts, background = stack
    fit = _assert_matches_oracle(bp.hom_fit_stack, hom_oracle, HOM_TAUS, counts,
                                 background, HOM_V)
    if fit is not None:
        _assert_rows_match_alone(bp.hom_fit_stack, HOM_TAUS, counts, background, fit)


@PROPERTY
@given(FRINGE_STACKS)
def test_fringe_fit_stack_matches_scalar_fits(stack):
    counts, background = stack
    fit = _assert_matches_oracle(tm.fringe_fit_stack, fringe_oracle, FRINGE_PHIS,
                                 counts, background, FRINGE_V)
    if fit is not None:
        _assert_rows_match_alone(tm.fringe_fit_stack, FRINGE_PHIS, counts, background, fit)


@PROPERTY
@given(HOM_STACKS, st.integers(0, 5), st.sampled_from(["flat", "background"]))
def test_hom_fit_stack_raises_when_one_scan_raises(stack, where, how):
    # one scan the scalar fit rejects, anywhere in a random stack: a flat
    # scan has no dip wings; a background of twice the 0.1x wing level is
    # above the wings of a 0.1x-count scan (and below those at 1x counts)
    counts, background = stack
    if how == "flat":
        bad = np.full(len(HOM_TAUS), 100)
    else:
        bad, background = hom_scan(where, "inside", 0.1), 0.2 * HOM_WING
    counts = np.insert(counts, min(where, len(counts)), bad, axis=0)
    assert _assert_matches_oracle(bp.hom_fit_stack, hom_oracle, HOM_TAUS, counts,
                                  background, HOM_V) is None


@PROPERTY
@given(FRINGE_STACKS, st.sampled_from([(4, 2.0), (17, 1.5), (5, 1.0)]))
def test_fringe_fit_stack_raises_where_scalar_raises(stack, grid):
    # too few points, or a scan shorter than one period
    counts, background = stack
    points, periods = grid
    phis = np.linspace(0.0, periods * np.pi, points)
    assert _assert_matches_oracle(tm.fringe_fit_stack, fringe_oracle, phis,
                                  counts[:, :points], background, FRINGE_V) is None


def test_negative_depth_fit_counts_as_not_converged(monkeypatch):
    # a 0.02-0.2 ps dip falling between the 0.5 ps delay samples: at seed
    # 1 the fit stops on a bump (depth about -51 counts, V about -0.0098)
    # 2.7 ps wide, well above the delay spacing, so only its negative depth
    # marks it as no dip, and the runner counts it in fits_not_converged
    bump = hom_scan(1, "narrow", 1.0)
    fit = bp.hom_fit_stack(HOM_TAUS, bump[None], HOM_BG)
    assert fit.depth[0] < 0 and fit.visibility_raw[0] < 0
    assert fit.coherence_time_ps[0] > 1.0
    assert not fit.converged[0]
    sample_counts = ex.sample_counts

    def with_bump(*args):
        counts = sample_counts(*args)
        counts[1] = bump
        return counts

    monkeypatch.setattr(ex, "sample_counts", with_bump)
    cfg = ExperimentConfig.measured_chip(n_trials=4, rng_seed=5)
    report = ex.run_hom_scan(cfg, delays_ps=HOM_TAUS)
    assert report.payload["diagnostics"] == {"fits_not_converged": 1}


@PROPERTY
@given(HOM_STACKS, st.randoms(use_true_random=False))
def test_hom_fit_stack_does_not_depend_on_the_delay_order(stack, random):
    # the same scans with their delay columns permuted together
    counts, background = stack
    order = list(range(len(HOM_TAUS)))
    random.shuffle(order)
    try:
        fit = _fields(bp.hom_fit_stack(HOM_TAUS, counts, background))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            bp.hom_fit_stack(HOM_TAUS[order], counts[:, order], background)
        return
    permuted = _fields(bp.hom_fit_stack(HOM_TAUS[order], counts[:, order], background))
    for name, value in fit.items():
        if name == "converged":
            np.testing.assert_array_equal(permuted[name], value)
        else:
            tol = V_TOL if name in HOM_V else PARAM_TOL
            np.testing.assert_allclose(permuted[name], value, rtol=0, atol=tol, err_msg=name)


def test_solve_stack_leaves_singular_systems_alone():
    # the fits' batched solve: a singular system gives a NaN row and a False
    # flag (the scalar fits stop there), and the other systems are solved
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4, 4))
    a[2, :, 1] = 0.0
    b = rng.normal(size=(4, 4, 1))
    x, solved = qc.solve_stack(a, b)
    np.testing.assert_array_equal(solved, [True, True, False, True])
    assert np.isnan(x[2]).all()
    for k in (0, 1, 3):
        np.testing.assert_array_equal(x[k], np.linalg.solve(a[k], b[k]))


# ---------------------------------------------------------------------------
# the stop rule: sqrt(eps), MINPACK's default step tolerance
# ---------------------------------------------------------------------------

def _measured_hom_scans(monkeypatch, scale):
    """(taus, counts (100, m), background) of each `run_hom_scan` fit of the
    measured config at `scale` x the default integration time, seeds 0-11."""
    defaults = ExperimentConfig.measured_chip()
    scans = []
    fit_stack = bp.hom_fit_stack

    def recording(taus, counts, background=0.0):
        scans.append((taus, counts, background))
        return fit_stack(taus, counts, background)

    with monkeypatch.context() as m:
        m.setattr(bp, "hom_fit_stack", recording)
        for seed in range(12):
            ex.run_hom_scan(ExperimentConfig.measured_chip(
                n_trials=100, rng_seed=seed,
                integration_time_s=scale * defaults.integration_time_s))
    return scans


def _evaluations(monkeypatch, trials):
    """(normal-equations evaluations, row evaluations) of the dip model in
    each `run_hom_scan` fit of the measured config with `trials` trials,
    seeds 0-11: one evaluation of the running rows starts the fit, one more
    per iteration, so a fit's iterations are its evaluations less one."""
    calls, rows = [], []
    normal_equations = bp._dip_normal_equations

    def counted(p, *args):
        calls[-1] += 1
        rows[-1] += len(p)
        return normal_equations(p, *args)

    monkeypatch.setattr(bp, "_dip_normal_equations", counted)
    for seed in range(12):
        calls.append(0)
        rows.append(0)
        ex.run_hom_scan(ExperimentConfig.measured_chip(n_trials=trials, rng_seed=seed))
    return np.array(calls), np.array(rows)


def test_hom_fit_stops_within_its_iteration_budget(monkeypatch):
    # from the width of the dip's area a 100-trial fit takes 5-6 iterations
    # and about 502 row evaluations, from a sixth of the span 6-7 and about
    # 679; the iteration count is that of the fit's slowest row, so one row
    # that runs long fails it on its seed
    calls, rows = _evaluations(monkeypatch, 100)
    assert np.all(calls - 1 <= 6), calls
    assert np.mean(rows) <= 520, rows


def test_one_trial_hom_fit_stops_within_its_iteration_budget(monkeypatch):
    # from the dip's area a one-trial fit takes 5-6 evaluations, about 5.1
    # on average; from a sixth of the span 7-8, about 7.1
    calls, _ = _evaluations(monkeypatch, 1)
    assert np.all(calls <= 6), calls
    assert np.mean(calls) <= 5.5, calls


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_step_tolerance_does_not_move_the_minimum(monkeypatch, scale):
    # stopping at sqrt(eps) instead of 1e-10 ends the fit at the same
    # least-squares minimum, to far below the scans' statistical spread
    for taus, counts, background in _measured_hom_scans(monkeypatch, scale):
        fit = bp.hom_fit_stack(taus, counts, background)
        with monkeypatch.context() as m:
            m.setattr(bp, "_LM_XTOL", 1e-10)
            tight = bp.hom_fit_stack(taus, counts, background)
        for name in HOM_V:
            np.testing.assert_allclose(getattr(fit, name), getattr(tight, name),
                                       rtol=0, atol=1e-9, err_msg=name)
        np.testing.assert_allclose(fit.coherence_time_ps, tight.coherence_time_ps,
                                   rtol=0, atol=1e-7)
        np.testing.assert_array_equal(fit.converged, tight.converged)

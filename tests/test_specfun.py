"""Special-function kernel against independent oracles."""

import math
import random

import numpy as np
import pytest
import scipy.optimize

from qbattery import merit
from qbattery.dynamics import DriveParams
from qbattery.pulses import Gaussian
from qbattery.specfun import (
    Accuracy,
    arcsinh,
    brentq,
    debruijn_w_approx,
    erf,
    erfinv,
    lambert_w0,
)

from oracles import erf_series, erfinv_bisect, lambert_bisect


class TestAccuracy:
    def test_defaults(self):
        acc = Accuracy()
        assert acc.abs_tol == 1e-12 and acc.rel_tol == 1e-12

    @pytest.mark.parametrize("bad", [(0.0, 1e-12), (1e-12, -1.0), (-1e-3, 1e-3)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Accuracy(*bad)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        # erfc(6) ~ 2e-17, so the limit is reached well within 1e-12
        assert abs(erf(6.0) - 1.0) < 1e-12

    def test_reference_point(self):
        # frozen from the 60-digit series oracle
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)

    def test_matches_series_oracle(self):
        for x in np.linspace(-6.0, 6.0, 241):
            want = erf_series(float(x))
            assert erf(float(x)) == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_odd_increasing_bounded(self):
        # erf saturates to 1.0 in double precision just below 5.9, so the
        # strict open bound is asserted where the mantissa can still see it
        grid = np.linspace(-6.0, 6.0, 1001)
        vals = np.array([erf(float(x)) for x in grid])
        assert np.all(np.abs(vals) <= 1.0)
        assert np.all(np.abs(vals[np.abs(grid) <= 5.8]) < 1.0)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.any(np.diff(vals) > 0.0)
        flipped = np.array([erf(float(-x)) for x in grid])
        assert np.allclose(vals, -flipped, atol=0.0, rtol=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            erf(bad)


class TestErfinv:
    def test_zero(self):
        assert erfinv(0.0) == 0.0

    def test_forward_roundtrip_contract(self):
        for p in np.linspace(-0.999999, 0.999999, 801):
            assert erf(erfinv(float(p))) == pytest.approx(float(p), abs=1e-10)

    def test_inverse_identity_roundtrip(self):
        assert erfinv(erf(0.7)) == pytest.approx(0.7, abs=1e-10)

    def test_reference_point(self):
        # frozen from the bisection oracle: erfinv(0.8427007929) = 0.999999999880...
        assert erfinv(0.8427007929) == pytest.approx(1.0, abs=1e-9)

    def test_matches_bisection_oracle(self):
        for p in (-0.99, -0.6, -0.123, 0.05, 0.5, 0.9, 0.999):
            assert erfinv(p) == pytest.approx(erfinv_bisect(p), abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(-0.995, 0.995, 399)
        vals = [erfinv(float(p)) for p in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_identity_where_conditioning_permits(self):
        # The roundtrip x -> erf -> erfinv is limited by the conditioning
        # (sqrt(pi)/2) e^(x^2) ulp(erf x): strict 1e-9 holds on [-4, 4],
        # beyond that only the conditioning-scaled bound can.
        for x in np.linspace(-4.0, 4.0, 401):
            x = float(x)
            assert erfinv(erf(x)) == pytest.approx(x, abs=1e-9)
        for x in np.linspace(4.0, 5.0, 51):
            x = float(x)
            assert abs(erfinv(erf(x)) - x) < 20.0 * math.exp(x * x) * 2.3e-16

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            erfinv(bad)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_defining_equation(self):
        for x in np.logspace(-6.0, 6.0, 49):
            w = lambert_w0(float(x))
            assert w >= 0.0
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-12)

    def test_reference_point(self):
        # frozen from the bisection oracle at 2 * 10^2 / pi
        x = 2.0 * 10.0**2 / math.pi
        assert lambert_w0(x) == pytest.approx(3.041301825028391, rel=1e-12)
        assert lambert_w0(x) == pytest.approx(lambert_bisect(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.1)
        with pytest.raises(ValueError):
            lambert_w0(math.inf)


class TestDeBruijn:
    def test_exact_at_e_to_e(self):
        u = math.exp(math.e)
        want = math.e - 1.0 + 1.0 / math.e
        assert debruijn_w_approx(u) == pytest.approx(want, rel=1e-14)

    def test_reference_point(self):
        # 4.6052 - 1.5272 + 0.3316 = 3.4096
        assert debruijn_w_approx(100.0) == pytest.approx(3.4096, abs=2e-4)
        l1 = math.log(100.0)
        l2 = math.log(l1)
        assert debruijn_w_approx(100.0) == pytest.approx(l1 - l2 + l2 / l1, rel=1e-15)

    def test_consistency_with_lambert(self):
        for u in np.logspace(math.log10(50.0), 6.0, 60):
            w = lambert_w0(float(u))
            assert abs(debruijn_w_approx(float(u)) - w) / w < 0.05

    def test_endpoint_accuracy(self):
        # < 5% at u = 50 improving to < 1% at u = 1e4
        for u, bound in ((50.0, 0.05), (1e4, 0.01)):
            w = lambert_w0(u)
            assert abs(debruijn_w_approx(u) - w) / w < bound

    @pytest.mark.parametrize("bad", [math.e, 1.0, 0.0, -3.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            debruijn_w_approx(bad)


class TestArcsinh:
    def test_trivia(self):
        assert arcsinh(0.0) == 0.0
        assert arcsinh(math.sinh(2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reference_point(self):
        # ln(1 + sqrt(2))
        assert arcsinh(1.0) == pytest.approx(0.8813735870195429, abs=1e-15)

    def test_log_formula_and_oddness(self):
        for x in np.linspace(-30.0, 30.0, 301):
            x = float(x)
            want = math.log(x + math.sqrt(x * x + 1.0)) if x >= 0 else -math.log(
                -x + math.sqrt(x * x + 1.0)
            )
            assert arcsinh(x) == pytest.approx(want, rel=1e-13, abs=1e-15)
            assert arcsinh(-x) == -arcsinh(x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            arcsinh(math.inf)


def same_float(x, y):
    """Equal as IEEE doubles, down to the sign of zero."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def outcome(fn, *args, **kwargs):
    """(float, root) on success, (exception type, None) on failure."""
    try:
        return float, fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), None


class TestBrentq:
    """The port against scipy.optimize.brentq, compared with exact float
    equality: same root, same points evaluated, same failures. Exact
    agreement has been verified on x86_64 against scipy 1.17.1 only."""

    @pytest.mark.parametrize(
        "acc", [Accuracy(), Accuracy(1e-8, 1e-8), Accuracy(1e-15, 1e-16)], ids=str
    )
    def test_peak_power_time_matches_scipy(self, acc, monkeypatch):
        params = [
            DriveParams(omega_b=1.0, zeta=float(z), pulse=Gaussian(1.0))
            for z in np.logspace(-3.0, 2.3, 60)
        ]
        ours = [merit.peak_power_time(p, acc) for p in params]
        monkeypatch.setattr(merit, "brentq", scipy.optimize.brentq)
        theirs = [merit.peak_power_time(p, acc) for p in params]
        assert all(same_float(a, b) for a, b in zip(ours, theirs))

    def test_weak_limit_matches_scipy(self, monkeypatch):
        ours = merit.peak_power_delay_weak_limit(1.7)
        monkeypatch.setattr(merit, "brentq", scipy.optimize.brentq)
        assert same_float(ours, merit.peak_power_delay_weak_limit(1.7))

    def test_random_odd_power_roots_match_scipy(self):
        rng = random.Random(20240601)
        converged = 0
        for _ in range(3000):
            power = rng.choice((1, 3, 5, 7, 9))
            root = rng.uniform(-5.0, 5.0)
            scale = rng.uniform(0.1, 3.0)
            if rng.random() < 0.25:
                # symmetric about the root, so |f(a)| and |f(b)| can tie
                # and the strict test of the endpoint swap is exercised
                half = rng.uniform(0.1, 5.0)
                a, b = root - half, root + half
            else:
                a, b = rng.uniform(-10.0, root), rng.uniform(root, 10.0)
            if rng.random() < 0.5:
                a, b = b, a
            xtol = 10.0 ** rng.uniform(-15.0, -2.0)
            rtol = max(10.0 ** rng.uniform(-16.0, -3.0), 4.0 * np.finfo(float).eps)
            calls = ([], [])

            def f(x, log):
                log.append(x)
                return scale * (x - root) ** power

            got = outcome(brentq, lambda x: f(x, calls[0]), a, b, xtol, rtol)
            want = outcome(
                scipy.optimize.brentq,
                lambda x: f(x, calls[1]), a, b, xtol=xtol, rtol=rtol, maxiter=100,
            )
            assert got[0] == want[0]
            assert got[0] is not float or same_float(got[1], want[1])
            assert calls[0] == calls[1]
            converged += got[0] is float
        # flat high powers under tiny tolerances exhaust the 100
        # iterations in both (2719 of these 3000 cases converge)
        assert converged > 2500

    def test_root_on_an_endpoint(self):
        for a, b in ((0.0, 1.0), (-1.0, 0.0)):
            want = scipy.optimize.brentq(lambda x: x, a, b, xtol=1e-12, rtol=1e-12)
            assert same_float(brentq(lambda x: x, a, b, 1e-12, 1e-12), want)

    @pytest.mark.parametrize(
        "f, a, b, kwargs",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0, {}),
            (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-16}),
            (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}),
            (lambda x: x - 0.3, 0.0, 1.0, {"xtol": -1e-12}),
        ],
        ids=["no-sign-change", "rtol-too-small", "xtol-zero", "xtol-negative"],
    )
    def test_failures_match_scipy(self, f, a, b, kwargs):
        args = {"xtol": 1e-12, "rtol": 1e-12, **kwargs}
        with pytest.raises(Exception) as theirs:
            scipy.optimize.brentq(f, a, b, **args)
        with pytest.raises(theirs.type):
            brentq(f, a, b, **args)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, 1e-12)

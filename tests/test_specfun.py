"""Special-function kernel against independent oracles."""

import math
import random

import numpy as np
import pytest
import scipy.optimize

from qbattery import merit, specfun
from qbattery.dynamics import DriveParams
from qbattery.pulses import Gaussian
from qbattery.specfun import (
    Accuracy,
    _newton,
    _number,
    arcsinh,
    debruijn_w_approx,
    erf,
    erfinv,
    lambert_w0,
)

from oracles import erf_series, erfinv_bisect, lambert_bisect


class TestNumber:
    """``_number`` is the one check of every number the package takes."""

    def test_signs_and_messages(self):
        assert _number("a", -2) == -2.0
        assert _number("a", 0.0, "nonnegative") == 0.0
        assert _number("a", 1e-300, "positive") == 1e-300
        assert _number("a", np.float64(0.5), "in (0, 1)") == 0.5
        for x, sign, rule in (
            (math.inf, "", "finite"),
            (math.nan, "nonnegative", "nonnegative and finite"),
            (-1, "nonnegative", "nonnegative and finite"),
            (0.0, "positive", "positive and finite"),
            (10**400, "positive", "positive and finite"),
            (None, "", "finite"),
            (1j, "", "finite"),
            ([1.0], "", "finite"),
            (np.array([1.0, 2.0]), "", "finite"),
            (np.True_, "", "finite"),
            (np.False_, "nonnegative", "nonnegative and finite"),
            (0.0, "in (0, 1)", "in (0, 1)"),
            (1.0, "in (0, 1)", "in (0, 1)"),
            (math.nan, "in (0, 1)", "in (0, 1)"),
            ("0.5", "in (0, 1)", "in (0, 1)"),
        ):
            with pytest.raises(ValueError) as err:
                _number("a", x, sign)
            assert str(err.value) == f"a must be {rule}, got {x!r}"

    @pytest.mark.parametrize(
        "fn, name, good",
        [(erf, "x", 1), (erfinv, "p", 0), (lambert_w0, "x", 1), (debruijn_w_approx, "u", 5), (arcsinh, "x", 1)],
    )
    def test_every_function_refuses_a_str_or_bool_by_name(self, fn, name, good):
        rule = "nonnegative and finite" if fn is lambert_w0 else "finite"
        for bad in (str(good), True):
            with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {bad!r}$"):
                fn(bad)
        # a numpy scalar is a number, taken as the Python float it equals
        for cast in (np.float64, np.int64):
            got = fn(cast(good))
            assert got == fn(float(good)) and type(got) is float


class TestAccuracy:
    def test_both_tolerances_are_required(self):
        # every run names its own tolerances, in a module constant
        for given in ((), (1e-12,)):
            with pytest.raises(TypeError):
                Accuracy(*given)
        acc = Accuracy(1e-14, 1e-13)
        assert acc.abs_tol == 1e-14 and acc.rel_tol == 1e-13

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


def newton_via_scipy(f, lo, hi, x0, xtol, rtol):
    """A stand-in for ``_newton`` that hands the same equation and
    bracket to ``scipy.optimize.brentq`` at its tightest tolerance."""
    return scipy.optimize.brentq(lambda x: f(x)[0], lo, hi, xtol=1e-15, rtol=4.0 * 2.0**-52)


class TestBrentq:
    """The package's roots against ``scipy.optimize.brentq`` run to its
    tightest tolerance on the same equation and bracket, and the root
    iteration's NaN refusal."""

    def test_peak_power_time_matches_scipy(self, monkeypatch):
        params = [
            DriveParams(omega_b=1.0, zeta=float(z), pulse=Gaussian(1.0))
            for z in np.logspace(-3.0, 2.3, 60)
        ]
        ours = [merit.peak_power_time(p) for p in params]
        monkeypatch.setattr(merit, "_newton", newton_via_scipy)
        theirs = [merit.peak_power_time(p) for p in params]
        for a, b in zip(ours, theirs):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_strong_drive_matches_scipy(self, monkeypatch):
        # far below the root each Newton step gains only about tau^2 / t,
        # so a seed at the bracket midpoint ran out of steps at zeta 1e150
        params = [
            DriveParams(omega_b=1.0, zeta=float(z), pulse=Gaussian(tau))
            for z in np.logspace(2.3, 153.0, 40)
            for tau in (0.01, 1.0, 30.0)
        ]
        ours = [merit.peak_power_time(p) for p in params]
        monkeypatch.setattr(merit, "_newton", newton_via_scipy)
        theirs = [merit.peak_power_time(p) for p in params]
        for a, b in zip(ours, theirs):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_weak_limit_matches_scipy(self, monkeypatch):
        ours = merit.peak_power_delay_weak_limit()
        monkeypatch.setattr(merit, "_newton", newton_via_scipy)
        assert ours == pytest.approx(merit.peak_power_delay_weak_limit(), rel=1e-12, abs=0.0)

    def test_nan_is_refused(self):
        def f(x):
            return (math.nan if x > 0.5 else x - 0.7), 1.0

        with pytest.raises(ValueError, match="NaN"):
            _newton(f, 0.0, 1.0, 0.9, 1e-12, 1e-12)


@pytest.fixture
def evaluations(monkeypatch):
    """The points at which every function handed to ``_newton`` is
    evaluated; clear it before a call and read its length after."""
    counts = []

    def counting(f, *args):
        def f_counted(x):
            counts.append(x)
            return f(x)

        return _newton(f_counted, *args)

    monkeypatch.setattr(specfun, "_newton", counting)
    monkeypatch.setattr(merit, "_newton", counting)
    return counts


class TestNewton:
    def test_erfinv_converges_in_a_few_evaluations(self, evaluations):
        rng = random.Random(20240601)
        worst = 0
        for _ in range(10_000):
            if rng.random() < 0.5:
                p = 10.0 ** rng.uniform(-16.0, 0.0)
            else:
                p = 1.0 - 10.0 ** rng.uniform(-16.0, -1.0)
            p = math.copysign(p, rng.random() - 0.5)
            if not -1.0 < p < 1.0:
                continue
            evaluations.clear()
            x = erfinv(p)
            assert abs(math.erf(x) - p) <= 1e-15
            worst = max(worst, len(evaluations))
        assert worst <= 10

    def test_lambert_w0_converges_in_a_few_evaluations(self, evaluations):
        rng = random.Random(20240601)
        worst = 0
        for _ in range(10_000):
            x = 10.0 ** rng.uniform(-8.0, 8.0)
            evaluations.clear()
            w = lambert_w0(x)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-14)
            worst = max(worst, len(evaluations))
        assert worst <= 10

    def test_stops_at_the_step_cap(self):
        # a step with a near-zero slope: every Newton step leaves the
        # bracket, the bisections never hit a zero, and a zero tolerance
        # is never met
        with pytest.raises(RuntimeError, match="100 steps"):
            _newton(lambda x: (1.0 if x > 0.1 else -1.0, 1e-300), -1.0, 1.0, 0.9, 0.0, 0.0)

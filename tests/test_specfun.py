import math
import sys
import warnings

import numpy as np
import pytest

from kinreg import specfun
from kinreg.geometry import origin
from kinreg.probe import sample_cylinder
from kinreg.specfun import (
    Regime,
    asymptotic_m,
    gamma_real,
    kummer_m,
    kummer_m_series,
    kummer_m_array,
    rgamma,
    tricomi_u,
    tricomi_u_array,
)
from kinreg import tricomi
from kinreg.tricomi import TricomiParams, eval_tricomi

# golden values frozen from a 40-digit run of tools/freeze_oracles.py
GAMMA_GOLDEN = {
    0.5: 1.772453850905516027298,
    0.001: 999.4237724845954452983,
    3.7: 4.170651783796604030087,
    12.25: 73711509.04676994909085,
    19.5: 27724322986333718.17814,
    -0.5: -3.544907701811032054596,
    -4.3: -0.1019807888834332807808,
    -19.77: 3.906338621395859469319e-18,
    -6.5: -0.001678869966447671228728,
    7.0: 720.0,
}

# Gamma across [-30, 171.5], and at the thirds k/3 that the constants of
# U(-(lam+2)/3; 2/3; .) use for lam = 3, 9, 15
GAMMA_RANGE_GOLDEN = {
    -29.5: 6.51418220326723240769e-32,
    1 / 3: 2.678938534707747788912,
    -1 / 3: -4.062353818279201377252,
    2 / 3: 1.354117939426400483005,
    4 / 3: 0.8929795115692492199452,
    -4 / 3: 3.046765363709401486504,
    -5 / 3: 2.41104468123697305446,
    7 / 3: 1.190639348758999057208,
    8 / 3: 1.504575488251555844712,
    -10 / 3: 0.3917269753340656516428,
    -11 / 3: 0.2465841151265085749791,
    13 / 3: 9.260528268125543683842,
    14 / 3: 14.7114047740152206324,
    -16 / 3: 0.01694972489426248196808,
    -17 / 3: 0.009324609395540240742961,
    19 / 3: 214.0210977522347608571,
    20 / 3: 389.0349262461803239521,
    75.5: 2.85994231565357221419e+108,
    150.0: 3.808922637630569726986e+260,
    171.5: 9.483367566824799336253e+307,
}

KUMMER_GOLDEN = {
    (-5 / 3, 2 / 3, -30.0): 353.9080554872523755579,
    (-5 / 3, 2 / 3, 30.0): 2709669284.545210597097,
    (-4 / 3, 4 / 3, -50.0): 114.1950616339534277835,
    (0.5, 1.5, 20.0): 12458600.4381720117239,
    (2.5, 0.7, -12.0): 0.002351385314685375405443,
    (-0.75, 2.25, 8.0): -5.183111866009888567328,
    (1.0, 1.0, 1.0): math.e,
    (-2.0, 0.7, 13.5): 115.5798319327731205135,
    (3.25, 5.5, -40.0): 0.0002582813822473934079953,
    (-5 / 3, 2 / 3, 50.0): 361084052337823193.1357,
}

U_GOLDEN = {
    (-5 / 3, 2 / 3, 0.5): -0.8008769457769420909748,
    (-5 / 3, 2 / 3, 7.3): 19.23438585669501617192,
    (-5 / 3, 2 / 3, 120.0): 2865.442968653299369513,
    (-11 / 3, 2 / 3, 4.0): -18.23367456080133180059,
    (-5 / 3, 2 / 3, 1000.0): 99777.80246730782782918,
}

U_REAL_NEG_GOLDEN = {
    -0.7: 5.22082462234723368697,
    -5.0: 42.5295732979607863222,
    -21.0: 353.6990830937445283056,
    -300.0: 27087.67580986197197623,
    -1000.0: 200444.4938308205075385,
}

# real-branch U(-5/3; 2/3; z) on 25 <= |z| <= 39, past the regime switch
# at |z| = 17; the name is that of the former 20 < |z| < 40 blend window
U_BLEND_GOLDEN = {
    -39.0: 948.2829856785100203383,
    -35.0: 796.6975285559063173624,
    -30.0: 622.3635983796204100024,
    -25.0: 465.6628507935439358701,
    25.0: 194.8314589516805577015,
    30.0: 268.2707671550086813264,
    35.0: 350.7934454509989773059,
    39.0: 423.0287047936357556515,
}

# real-branch U(-17/3; 2/3; z) and U(-23/3; 2/3; z), lam = 15 and 21, past
# the regime switch: the first terms of their Poincare series grow
U_GROWING_TERMS_GOLDEN = {
    (-17 / 3, -30.0): 1124024427.675724585045,
    (-17 / 3, -25.0): 464655983.0035640758996,
    (-17 / 3, -22.0): 253337415.3481672512053,
    (-17 / 3, 22.0): 6021261.469614832019276,
    (-17 / 3, 25.0): 17135827.06379627029794,
    (-17 / 3, 30.0): 67656128.77255293320749,
    (-23 / 3, -25.0): 634949623736.6567016678,
    (-23 / 3, 25.0): 1312992713.823826808466,
}

U_AT_ZERO = 0.8792730042874622700456737  # Gamma(1/3) / Gamma(-4/3)


def test_gamma_classics():
    assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    for k in range(1, 12):
        assert gamma_real(k + 1) == pytest.approx(math.factorial(k), rel=1e-13)
    # a large argument, well inside the double range
    assert gamma_real(142.0) == pytest.approx(math.factorial(141), rel=1e-12)


def test_gamma_golden_grid():
    for x, want in GAMMA_GOLDEN.items():
        assert gamma_real(x) == pytest.approx(want, rel=1e-12), x


def test_gamma_range_and_u_thirds():
    for x, want in GAMMA_RANGE_GOLDEN.items():
        assert gamma_real(x) == pytest.approx(want, rel=2e-15), x


def test_gamma_recurrence_sweep():
    # Gamma(x+1) = x Gamma(x) across [-20, 20] avoiding poles
    for x in np.arange(-19.95, 19.0, 0.31):
        if abs(x - round(x)) < 0.04 or abs(x + 1 - round(x + 1)) < 0.04:
            continue
        assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-12)


def test_gamma_negative_recurrence_example():
    # Gamma(-4/3) = (9/4) Gamma(2/3)
    assert gamma_real(-4.0 / 3.0) == pytest.approx(2.25 * gamma_real(2.0 / 3.0), rel=1e-13)


def test_gamma_pole_raises_and_rgamma_zero():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            gamma_real(x)
        assert rgamma(x) == 0.0


# 1/Gamma at large |x| (tools/freeze_oracles.py)
RGAMMA_GOLDEN = {
    150.0: 2.625414310389022798909e-261,
    -150.5: -2.232916573625751559231e+263,
}


def test_rgamma_beyond_gamma_range():
    for x, want in RGAMMA_GOLDEN.items():
        assert rgamma(x) == pytest.approx(want, rel=1e-12), x
    assert rgamma(1e308) == 0.0
    # Gamma is subnormal down to about -178 and 0 below: 1/Gamma is not finite
    assert 0.0 < gamma_real(-175.5) < sys.float_info.min
    for x in (-171.5, -175.5, -177.5, -200.5):
        with pytest.raises(ValueError, match="overflows"):
            rgamma(x)


def test_kummer_m_overflow_raises_naming_z():
    # the transformed sum M(7/3; 2/3; 699) overflows before e^z scales it back
    with pytest.raises(ValueError, match="z = -699"):
        kummer_m(-5 / 3, 2 / 3, -699.0)
    with pytest.raises(ValueError, match="z = 650"):
        kummer_m_array(12.5, 0.3, np.array([1.0, 650.0]))
    with pytest.raises(ValueError, match="z = 1000"):
        kummer_m_series(0.5, 1.5, 1000.0)


@pytest.mark.parametrize("call", [
    lambda: kummer_m(-5 / 3, 2 / 3, -699.0),
    lambda: kummer_m_array(12.5, 0.3, np.array([1.0, 650.0])),
    lambda: kummer_m_series(0.5, 1.5, 1000.0),
], ids=["transformed", "array", "series"])
def test_kummer_m_overflow_raises_without_warnings(call):
    # the overflowing sum is reported by the ValueError alone, with no
    # numpy RuntimeWarning printed on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: tricomi_u(-5 / 3, 2 / 3, 1e300), r"z = 1e\+300", id="U-z-1e300"),
    pytest.param(lambda: tricomi_u(-5 / 3, 2 / 3, -1e300), r"z = -1e\+300", id="U-z-minus-1e300"),
    pytest.param(lambda: eval_tricomi(TricomiParams(A=1.0, lam=3), 1.0, 1e100), "T overflows",
                 id="T-v-1e100"),
    pytest.param(lambda: eval_tricomi(TricomiParams(A=1.0, lam=3), 1e300, 1.0), "T overflows",
                 id="T-x-1e300"),
    pytest.param(lambda: eval_tricomi(TricomiParams(A=1.0, lam=3), 0.0, 1e100), "T overflows",
                 id="T-trace-v-1e100"),
])
def test_tricomi_overflow_raises_without_warnings(call, match):
    # as for M: a U or T that overflows is reported by the ValueError alone,
    # never returned as inf or nan, and no numpy RuntimeWarning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


def test_kummer_at_zero_exact():
    for a, b in [(0.3, 0.7), (-5 / 3, 2 / 3), (2.0, 5.0)]:
        ev = kummer_m(a, b, 0.0)
        assert ev.value == 1.0


def test_kummer_exp_identity():
    ev = kummer_m(1.0, 1.0, 1.0)
    assert ev.value == pytest.approx(math.e, rel=1e-14)
    for z in (-3.0, 0.5, 8.0):
        assert kummer_m(1.0, 1.0, z).value == pytest.approx(math.exp(z), rel=1e-13)


def test_kummer_terminating_case():
    ev = kummer_m(-2.0, 0.7, 13.5)
    assert ev.regime is Regime.POLYNOMIAL_CASE
    assert ev.value == pytest.approx(KUMMER_GOLDEN[(-2.0, 0.7, 13.5)], rel=1e-13)


def test_kummer_golden_grid_and_error_bound():
    for (a, b, z), want in KUMMER_GOLDEN.items():
        ev = kummer_m(a, b, z)
        assert ev.value == pytest.approx(want, rel=1e-11), (a, b, z)
        # reported error estimate is a true bound (10x slack)
        assert abs(ev.value - want) <= 10.0 * ev.est_abs_error + 1e-15 * abs(want)


def test_kummer_pole_and_overflow_errors():
    with pytest.raises(ValueError):
        kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, -3.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(0.5, 1.5, 800.0)


def test_kummer_transformation_identity_grid():
    # M(a;b;z) = e^z M(b-a;b;-z), raw series both sides, 200-point grid.
    # 0 < a < b keeps M single-signed so the relative comparison is
    # well-posed (near zeros of M no double-precision series can hold a
    # relative identity).
    a_vals = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05, 1.2, 1.35, 1.5]
    offsets = [0.3, 0.8, 1.5, 2.2, 3.0]
    # the roundoff floor of the comparison scales like eps * e^(2|z|)
    # (the z < 0 side is exponentially small against its largest term),
    # so |z| <= 6 is where a 1e-11 relative identity is provable
    z_vals = [-6.0, -2.5, 2.5, 6.0]
    count = 0
    for a in a_vals:
        for off in offsets:
            b = a + off
            for z in z_vals:
                lhs = kummer_m_series(a, b, z).value
                rhs = math.exp(z) * kummer_m_series(b - a, b, -z).value
                scale = max(abs(lhs), abs(rhs))
                assert abs(lhs - rhs) <= 1e-11 * scale, (a, b, z)
                count += 1
    assert count == 200


def test_kummer_ode_residual():
    # z M'' + (b - z) M' - a M = 0 via M' = (a/b) M(a+1;b+1;z)
    for a in (-5 / 3, 0.4, 1.3, -0.7):
        for b in (2 / 3, 4 / 3, 2.4):
            for z in (-30.0, -7.0, -1.0, 0.5, 3.0, 12.0, 30.0):
                m = kummer_m(a, b, z).value
                mp = a / b * kummer_m(a + 1, b + 1, z).value
                mpp = (a / b) * ((a + 1) / (b + 1)) * kummer_m(a + 2, b + 2, z).value
                resid = z * mpp + (b - z) * mp - a * m
                scale = max(abs(z * mpp), abs((b - z) * mp), abs(a * m), 1.0)
                assert abs(resid) <= 1e-8 * scale, (a, b, z)


def test_tricomi_u_a_zero_is_one():
    for z in (0.0, 0.5, 5.0, -3.0):
        assert tricomi_u(0.0, 2 / 3, z).value == pytest.approx(1.0, abs=1e-14)


def test_tricomi_u_at_zero_matches_oracle():
    got = tricomi_u(-5 / 3, 2 / 3, 0.0).value
    assert got == pytest.approx(U_AT_ZERO, rel=1e-10)
    closed = gamma_real(1 / 3) / gamma_real(-4 / 3)
    assert got == pytest.approx(closed, rel=1e-12)


def test_tricomi_u_golden():
    for (a, b, z), want in U_GOLDEN.items():
        ev = tricomi_u(a, b, z)
        assert ev.value == pytest.approx(want, rel=1e-10), (a, b, z)


def test_tricomi_u_negative_real_branch_golden():
    for z, want in U_REAL_NEG_GOLDEN.items():
        ev = tricomi_u(-5 / 3, 2 / 3, z)
        assert ev.value == pytest.approx(want, rel=1e-9), z


def test_tricomi_u_blend_window_golden():
    # one formula per lane: no e^z cancellation of the connection formula
    # reaches these lanes, and the error estimate covers the true error
    for z, want in U_BLEND_GOLDEN.items():
        ev = tricomi_u(-5 / 3, 2 / 3, z)
        assert ev.regime is Regime.ASYMPTOTIC
        assert abs(ev.value - want) <= ev.est_abs_error, z
        assert abs(ev.value - want) <= 1e-13 * abs(want), z


def test_tricomi_u_golden_where_poincare_terms_grow_first():
    # lam = 15 and 21: the sum runs past the terms that grow at first and
    # stops at its smallest term
    for (a, z), want in U_GROWING_TERMS_GOLDEN.items():
        ev = tricomi_u(a, 2 / 3, z)
        assert ev.regime is Regime.ASYMPTOTIC
        assert abs(ev.value - want) <= 1e-13 * abs(want), (a, z)
        assert abs(ev.value - want) <= ev.est_abs_error, (a, z)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_tricomi_u_rejects_non_finite(z):
    with pytest.raises(ValueError):
        tricomi_u(-5 / 3, 2 / 3, z)
    with pytest.raises(ValueError):
        tricomi_u_array(-5 / 3, 2 / 3, np.array([0.5, z, 100.0]))


def test_array_lanes_match_one_lane_calls():
    # both signs, z = 0, both sides of the regime switch at |z| = 17 and
    # far into the asymptotic regime in one batch
    zs = np.array([0.0, -0.0, 1e-9, -0.3, 0.3, -7.5, 7.5, -19.99, 20.0, -20.0, 20.01,
                   -25.0, 30.0, -35.5, 39.99, 40.0, -40.0, 41.0, -120.0, 300.0, -2000.0])
    for a, b in [(-5 / 3, 2 / 3), (-4 / 3, 4 / 3), (-11 / 3, 2 / 3)]:
        lanes = tricomi_u_array(a, b, zs.reshape(3, 7))
        assert lanes.value.shape == (3, 7)
        for i, z in enumerate(zs):
            one = tricomi_u(a, b, float(z))
            got = lanes.lane(i)
            assert got.regime is one.regime and got.terms_used == one.terms_used, (a, b, z)
            assert abs(got.value - one.value) <= 1e-14 * abs(one.value), (a, b, z)
    # Kummer M: terminating case, the transformation (z < -1) and the raw series
    zk = np.array([-30.0, -5.0, -1.0, 0.0, 0.5, 12.0])
    for a, b in [(0.4, 1.3), (-2.0, 0.7), (-5 / 3, 2 / 3)]:
        lanes = kummer_m_array(a, b, zk)
        for i, z in enumerate(zk):
            one = kummer_m(a, b, float(z))
            assert lanes.regime[i] is one.regime and lanes.terms_used[i] == one.terms_used
            assert abs(lanes.value[i] - one.value) <= 1e-14 * abs(one.value), (a, b, z)


def test_tricomi_u_large_z_power_law():
    # leading correction is -a(a-b+1)/z = -(20/9)/z, so the 2% window
    # opens at z = 112; at z = 100 exactly the deviation is 0.0222
    for z in (120.0, 400.0, 2000.0):
        ev = tricomi_u(-5 / 3, 2 / 3, z)
        assert abs(ev.value * z ** (-5 / 3) - 1.0) <= 0.02


def test_tricomi_u_integer_b_rejected():
    with pytest.raises(ValueError):
        tricomi_u(-5 / 3, 1.0, 0.5)


def test_asymptotic_m_overlap():
    # a = 1, b = 1: M = e^z
    assert asymptotic_m(1.0, 1.0, 40.0) == pytest.approx(math.exp(40.0), rel=0.01)
    # z -> -inf branch at z = -40, compare against the series evaluator
    for a, b in [(-5 / 3, 2 / 3), (0.4, 1.3), (1.2, 2.7)]:
        got = asymptotic_m(a, b, -40.0)
        ref = kummer_m(a, b, -40.0).value
        assert got == pytest.approx(ref, rel=0.03), (a, b)
    got = asymptotic_m(-5 / 3, 2 / 3, 50.0)
    ref = kummer_m(-5 / 3, 2 / 3, 50.0).value
    assert got == pytest.approx(ref, rel=1e-3)
    with pytest.raises(ValueError):
        asymptotic_m(0.4, 1.3, 3.0)


def test_eval_tricomi_matches_u():
    # T = A^{-5/2} v^5 - K x^{5/3} U(-5/3; 2/3; -v^3/(9Ax)) for either sign of v
    for A in (1.0, 2.0):
        p = TricomiParams(A=A, lam=3)
        K = 2.0 * 9.0 ** (5 / 3) * A ** (-5 / 6)
        for x in (0.3, 1.0):
            for v in (0.8, -0.8, 0.0, 2.1):
                tau = -v ** 3 / (9 * A * x)
                want = A ** -2.5 * v ** 5 - K * x ** (5 / 3) * tricomi_u(-5 / 3, 2 / 3, tau).value
                assert eval_tricomi(p, x, v) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        eval_tricomi(TricomiParams(A=1.0, lam=3), -0.5, 1.0)


def test_error_estimates_nonnegative_and_regimes():
    assert kummer_m(0.4, 1.3, 5.0).regime is Regime.SERIES
    assert tricomi_u(-5 / 3, 2 / 3, 5.0).regime is Regime.CONNECTION_FORMULA
    assert tricomi_u(-5 / 3, 2 / 3, 100.0).regime is Regime.ASYMPTOTIC
    for ev in (kummer_m(0.4, 1.3, 5.0), tricomi_u(-5 / 3, 2 / 3, -8.0)):
        assert ev.est_abs_error >= 0.0


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: kummer_m(0.5, math.nan, 0.5), "b = nan", id="M-b-nan"),
    pytest.param(lambda: kummer_m(math.nan, 0.5, 0.5), "a = nan", id="M-a-nan"),
    pytest.param(lambda: kummer_m_series(0.5, math.inf, 0.5), "b = inf", id="M-series-b-inf"),
    pytest.param(lambda: tricomi_u(-5 / 3, math.nan, 0.5), "b = nan", id="U-b-nan"),
    pytest.param(lambda: tricomi_u(0.3, 0.5, -1.0), "negative base", id="U-negative-z-even-root"),
    pytest.param(lambda: gamma_real(math.inf), "non-finite", id="gamma-inf"),
    pytest.param(lambda: gamma_real(-math.inf), "non-finite", id="gamma-minus-inf"),
    pytest.param(lambda: gamma_real(200.0), "overflows", id="gamma-200"),
    pytest.param(lambda: rgamma(-math.inf), "non-finite", id="rgamma-minus-inf"),
    pytest.param(lambda: asymptotic_m(0.4, 1.3, math.nan), "z = nan", id="asym-m-nan"),
    pytest.param(lambda: asymptotic_m(0.4, 1.3, math.inf), "z = inf", id="asym-m-inf"),
    pytest.param(lambda: asymptotic_m(0.4, 1.3, -math.inf), "z = -inf", id="asym-m-minus-inf"),
    pytest.param(lambda: asymptotic_m(-2.0, 1.3, 40.0), "terminating", id="asym-m-terminating"),
])
def test_bad_parameters_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# The Taylor core before lanes were grouped by width: every block of up to
# _BLOCK // len(pairs) lanes took the width of its largest |z|. Kept as the
# reference the grouped core must reproduce bit for bit.

def _ref_taylor(pairs, z):
    size = specfun._BLOCK // len(pairs)
    if z.size <= size:
        return _ref_taylor_block(pairs, z)
    parts = [_ref_taylor_block(pairs, z[lo:lo + size]) for lo in range(0, z.size, size)]
    return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))


def _ref_taylor_block(pairs, z):
    n = z.size
    deg = np.repeat([specfun._poly_degree(a) for a, _ in pairs], n)
    width = 16 * math.ceil((24 + 3 * np.abs(z).max(initial=0.0)) / 16)
    width = max(min(width, specfun._SERIES_CAP), int(deg.max(initial=0)))
    factors = specfun._ratios(pairs, width)[:, None, :] * z[:, None]
    done, val, err, used = _ref_taylor_terms(factors.reshape(-1, width), deg)
    while not done.all():
        width = min(2 * width, specfun._SERIES_CAP)
        redo = np.flatnonzero(~done)
        done[redo], val[redo], err[redo], used[redo] = _ref_taylor_terms(
            specfun._ratios(pairs, width)[redo // n] * z[redo % n, None], deg[redo])
    shape = (len(pairs), n)
    return val.reshape(shape), err.reshape(shape), used.reshape(shape)


def _ref_taylor_terms(factors, deg):
    n, width = factors.shape
    X = np.empty((n, width + 1))
    X[:, 0] = 1.0
    np.cumprod(factors, axis=1, out=X[:, 1:])
    S = np.cumsum(X, axis=1)
    aX = np.abs(X)
    small = aX[:, 1:] < 1e-17 * np.maximum(np.abs(S[:, 1:]), 1e-300)
    run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    lanes = np.arange(n)
    first = run.argmax(axis=1)
    stopped = run[lanes, first]
    poly = deg >= 0
    used = np.where(poly, deg, np.where(stopped, first + 3, width))
    S[:, 1:] += np.cumsum(specfun._two_sum(S[:, :-1], X[:, 1:])[1], axis=1)
    max_abs = np.maximum.accumulate(aX, axis=1)[lanes, used]
    err = np.where(poly, 4.0 * specfun._EPS * max_abs * (used + 1),
                   2.0 * aX[lanes, used] + 4.0 * specfun._EPS * max_abs * np.sqrt(used + 1.0))
    return poly | stopped | (width >= specfun._SERIES_CAP), S[lanes, used], err, used


_U_PAIRS = ((-5 / 3, 2 / 3), (-5 / 3 - 2 / 3 + 1.0, 2.0 - 2 / 3))  # as _u_connection calls it
_CORE_RNG = np.random.default_rng(20)
_CORE_CASES = {
    # |z| from 0 to 700, shuffled: about 130 width classes in one call
    "shuffled-to-700": (((0.4, 1.3),), _CORE_RNG.permutation(np.linspace(-700.0, 700.0, 2001))),
    "connection-pairs": (_U_PAIRS, _CORE_RNG.uniform(-40.0, 40.0, 1500)),
    "terminating": (((-2.0, 0.7), (0.4, 1.3)), _CORE_RNG.uniform(-50.0, 50.0, 700)),
    # one width class, 1000 lanes: 8 blocks of at most 128
    "one-class-many-blocks": (_U_PAIRS, _CORE_RNG.uniform(-0.3, 0.3, 1000)),
    # a = 60 needs far more terms than 2.7 |z| + 20: the doubling redo path
    "doubling-redo": (((60.0, 0.5),), _CORE_RNG.permutation(np.linspace(-10.0, 10.0, 301))),
    "empty": (_U_PAIRS, np.empty(0)),
    "one-lane": (_U_PAIRS, np.array([-0.003])),
}


@pytest.mark.parametrize("case", list(_CORE_CASES))
def test_grouped_taylor_core_matches_single_width_core(case):
    pairs, z = _CORE_CASES[case]
    got, want = specfun._taylor(pairs, z), _ref_taylor(pairs, z)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (len(pairs), z.size)
        assert np.array_equal(g, w), case
    if case == "doubling-redo":
        start = 16 * math.ceil((24 + 3 * np.abs(z).max()) / 16)
        assert got[2].max() > start


def test_taylor_work_tracks_terms_used(monkeypatch):
    # a work count, not a wall-clock time: matrix cells filled per term a
    # finished lane used, for T on the p5 probe's unit cylinder (5.7 when
    # a block took the width of its largest |z|)
    count = {"cells": 0, "terms": 0}
    terms = specfun._taylor_terms

    def counting(factors, deg):
        out = terms(factors, deg)
        count["cells"] += factors.size
        count["terms"] += int(out[3][out[0]].sum())
        return out

    monkeypatch.setattr(specfun, "_taylor_terms", counting)
    monkeypatch.setattr(specfun, "_kept_sums", None)
    pts = sample_cylinder(origin(1), 1.0, 1680, seed=7)
    eval_tricomi(TricomiParams(A=1.0), pts[:, 1], pts[:, 2])
    assert count["terms"] > 0
    assert count["cells"] <= 4 * count["terms"]


# _taylor keeps its last call. That is only sound because a lane's sums
# depend on its z alone: a hit must give the bits a fresh sum gives.

@pytest.fixture
def sums(monkeypatch):
    """Drop the kept sums and count the calls that compute them."""
    monkeypatch.setattr(specfun, "_kept_sums", None)
    calls = []
    compute = specfun._taylor_sums

    def counted(pairs, z):
        calls.append(z.size)
        return compute(pairs, z)

    monkeypatch.setattr(specfun, "_taylor_sums", counted)
    return calls


def test_kept_sums_hit_returns_copies(sums):
    z = np.array([-3.0, 0.0, 0.5, 12.0])
    first = specfun._taylor(_U_PAIRS, z)
    want = [a.copy() for a in first]
    for a in first:
        a[...] = 0
    again = specfun._taylor(_U_PAIRS, z.copy())
    assert sums == [4]
    for a, w, k in zip(again, want, specfun._kept_sums[2]):
        assert np.array_equal(a, w) and np.array_equal(k, w)
        a[...] = 0
    assert all(np.array_equal(k, w) for k, w in zip(specfun._kept_sums[2], want))


@pytest.mark.parametrize("pairs, z", [
    (((-5 / 3, 2 / 3),), np.array([-3.0, 0.0, 0.5, 12.0])),  # other pairs
    (_U_PAIRS, np.array([-3.0, 0.0, 0.5, np.nextafter(12.0, 13.0)])),  # one lane
    (_U_PAIRS, np.array([-3.0, -0.0, 0.5, 12.0])),  # signed zero
    (_U_PAIRS, np.array([-3.0, 0.0, 0.5])),  # length
])
def test_kept_sums_misses(sums, pairs, z):
    specfun._taylor(_U_PAIRS, np.array([-3.0, 0.0, 0.5, 12.0]))
    got = specfun._taylor(pairs, z)
    assert sums == [4, z.size]
    for g, w in zip(got, specfun._taylor_sums(pairs, z)):
        assert np.array_equal(g, w)


def _kept_sums_corpus():
    """Arguments like those of the Taylor core's golden comparisons: |z|
    up to 700 in random order, signed zeros, repeated lanes and T's
    arguments on the probe's dilated point sets."""
    rng = np.random.default_rng(19)
    z = rng.permutation(np.concatenate([np.linspace(-700.0, 700.0, 1401),
                                        rng.uniform(-40.0, 40.0, 1000), [0.0, -0.0, 0.0]]))
    pts = sample_cylinder(origin(1), 1.0, 840, seed=3)
    return z, pts[:, 1], pts[:, 2]


def test_kept_sums_keep_every_bit(sums, monkeypatch):
    monkeypatch.setattr(tricomi, "_last", None)
    z, x, v = _kept_sums_corpus()
    p = TricomiParams(A=1.0)
    near = z[np.abs(z) <= 60.0]
    calls = [
        (kummer_m_array, (0.4, 1.3, z)), (kummer_m_array, (0.4, 1.3, z)),
        (kummer_m_array, (-5 / 3, 2 / 3, near[near >= -1.0])),
        (kummer_m_array, (-5 / 3, 2 / 3, near[near >= -1.0])),
        (specfun.kummer_m_series_array, (-4 / 3, 4 / 3, near)),
        (tricomi_u_array, (-5 / 3, 2 / 3, near)), (tricomi_u_array, (-5 / 3, 2 / 3, near)),
        (tricomi_u_array, (-4 / 3, 4 / 3, near)),
        # T at the dilated points (r^3 x, r v) has the same Kummer arguments
        (eval_tricomi, (p, x, v)), (eval_tricomi, (p, x / 8.0, v / 2.0)),
        (eval_tricomi, (p, x / 64.0, v / 4.0)),
    ]
    kept = [fn(*args) for fn, args in calls]
    computed = len(sums)
    fresh = []
    for fn, args in calls:
        specfun._kept_sums = None
        tricomi._last = None
        fresh.append(fn(*args))
    taylor_calls = len(sums) - computed  # the fresh pass sums at every call
    assert computed == taylor_calls - 4  # the four repeats were answered from kept sums
    for (fn, _), k, f in zip(calls, kept, fresh):
        for a, b in zip(*(r if isinstance(r, tuple) else (r,) for r in (k, f))):
            assert np.array_equal(a, b), fn.__name__

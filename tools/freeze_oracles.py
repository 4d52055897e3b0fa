"""Dev-time arbitrary-precision oracle (mpmath). Not a runtime dependency.

Regenerates every golden constant frozen into the test suite:
  * Gamma grid, Gamma across [-30, 171.5] and at the thirds of the U
    constants for lam = 3, 9, 15, 1/Gamma(150) and 1/Gamma(-150.5)
  * Kummer M grid, classical-U grid, real-branch U grid, both out to |z| = 1000
  * the real-branch U(-5/3; 2/3; z) on 25 <= |z| <= 39, past the regime
    switch at |z| = 17
  * U(-17/3; 2/3; .), U(-23/3; 2/3; .) and T_{1,15} where the Poincare
    terms grow before they shrink
  * U(-5/3; 2/3; 0) = Gamma(1/3)/Gamma(-4/3)
  * T_{1,3}(1, 0), T_{1,3}(1e-300, +-1) and the obstruction normalization checks
  * the PDE residual constant -(lam+1)(lam+2) A^{-lam/2}
  * boundary evenness gap decay gap(x)/x -> const

Run:  python tools/freeze_oracles.py
"""

import mpmath as mp

mp.mp.dps = 40


def u_real(aU, b, z):
    """Real-branch Tricomi U: connection formula, real cube root for z < 0."""
    z = mp.mpf(z)
    t1 = mp.gamma(1 - b) / mp.gamma(aU + 1 - b) * mp.hyp1f1(aU, b, z)
    root = mp.cbrt(z) if z >= 0 else -mp.cbrt(-z)
    t2 = mp.gamma(b - 1) / mp.gamma(aU) * root * mp.hyp1f1(aU - b + 1, 2 - b, z)
    return t1 + t2


def tricomi(lam, A, x, v):
    x, v, A = mp.mpf(x), mp.mpf(v), mp.mpf(A)
    c = mp.mpf(lam + 2) / 3
    tau = -v ** 3 / (9 * A * x)
    return A ** (-mp.mpf(lam + 2) / 2) * v ** (lam + 2) \
        - 2 * mp.mpf(9) ** c * A ** (-mp.mpf(lam + 2) / 6) * x ** c * u_real(-c, mp.mpf(2) / 3, tau)


def main():
    print("# gamma grid")
    for x in [0.5, 0.001, 3.7, 12.25, 19.5, -0.5, -4.3, -19.77, -6.5, 7.0]:
        print(f"  {x!r}: {mp.nstr(mp.gamma(x), 22)}")

    print("# gamma across [-30, 171.5], and at the thirds the U(-(lam+2)/3; 2/3; .) constants")
    print("# use for lam = 3, 9, 15")
    thirds = [k / 3 for k in (1, -1, 2, 4, -4, -5, 7, 8, -10, -11, 13, 14, -16, -17, 19, 20)]
    for x in [-29.5] + thirds + [75.5, 150.0, 171.5]:
        print(f"  {x!r}: {mp.nstr(mp.gamma(x), 22)}")

    print("# 1/Gamma at large |x|")
    for x in [150, -150.5]:
        print(f"  {x!r}: {mp.nstr(mp.rgamma(x), 22)}")

    print("# kummer M grid")
    grid = [(-5 / 3, 2 / 3, -30.0), (-5 / 3, 2 / 3, 30.0), (-4 / 3, 4 / 3, -50.0),
            (0.5, 1.5, 20.0), (2.5, 0.7, -12.0), (-0.75, 2.25, 8.0), (1.0, 1.0, 1.0),
            (-2.0, 0.7, 13.5), (3.25, 5.5, -40.0), (-5 / 3, 2 / 3, 50.0)]
    for a, b, z in grid:
        print(f"  ({a!r},{b!r},{z!r}): {mp.nstr(mp.hyp1f1(a, b, z), 22)}")

    print("# classical U grid and the z = 0 value")
    for a, b, z in [(-5 / 3, 2 / 3, 0.5), (-5 / 3, 2 / 3, 7.3), (-5 / 3, 2 / 3, 120.0),
                    (-11 / 3, 2 / 3, 4.0)]:
        print(f"  ({a!r},{b!r},{z!r}): {mp.nstr(mp.hyperu(a, b, z), 22)}")
    print(f"  U(-5/3;2/3;0) = {mp.nstr(mp.gamma(mp.mpf(1) / 3) / mp.gamma(mp.mpf(-4) / 3), 25)}")
    # hyperu, not u_real: the connection formula cancels e^z-scale terms on z > 0
    print(f"  (-5/3,2/3,1000.0): {mp.nstr(mp.hyperu(mp.mpf(-5) / 3, mp.mpf(2) / 3, 1000), 22)}")

    print("# real-branch U on the negative axis")
    for z in [-0.7, -5.0, -21.0, -300.0, -1000.0]:
        print(f"  z={z!r}: {mp.nstr(u_real(mp.mpf(-5) / 3, mp.mpf(2) / 3, z), 22)}")

    print("# real-branch U past the regime switch at |z| = 17")
    for z in [-39.0, -35.0, -30.0, -25.0, 25.0, 30.0, 35.0, 39.0]:
        print(f"  z={z!r}: {mp.nstr(u_real(mp.mpf(-5) / 3, mp.mpf(2) / 3, z), 22)}")

    print("# real-branch U for lam = 15 and 21, whose Poincare terms grow at first")
    for k, zs in [(17, [-30.0, -25.0, -22.0, 22.0, 25.0, 30.0]), (23, [-25.0, 25.0])]:
        for z in zs:
            print(f"  (-{k}/3,{z!r}): {mp.nstr(u_real(-mp.mpf(k) / 3, mp.mpf(2) / 3, z), 22)}")

    print("# T_{1,15}(1e-3, v), tau = -v^3 / 9e-3 = -+24")
    for v in [0.6, -0.6]:
        print(f"  v={v!r}: {mp.nstr(tricomi(15, 1, 1e-3, v), 22)}")

    print("# real-branch sanity: agrees with hyperu on z > 0")
    for z in [0.5, 10.0, 40.0]:
        a, b = mp.mpf(-5) / 3, mp.mpf(2) / 3
        # the connection formula cancels e^z-scale terms: ~30 digits survive
        assert mp.almosteq(u_real(a, b, z), mp.hyperu(a, b, z), rel_eps=mp.mpf(10) ** -25)
    print("  ok")

    print("# obstruction normalization: K' = lim U_real(z)/(-z)^(5/3), z -> -inf (expect 2)")
    for z in [-1e5, -1e7]:
        print(f"  z={z:g}: {mp.nstr(u_real(mp.mpf(-5) / 3, mp.mpf(2) / 3, z) / mp.mpf(-z) ** (mp.mpf(5) / 3), 12)}")

    print("# T_{1,3}(1, 0) golden and closed form")
    print(f"  {mp.nstr(tricomi(3, 1, 1, mp.mpf(1) / 10 ** 25), 25)}")
    print(f"  -2*9^(5/3)*Gamma(1/3)/Gamma(-4/3) = "
          f"{mp.nstr(-2 * mp.mpf(9) ** (mp.mpf(5) / 3) * mp.gamma(mp.mpf(1) / 3) / mp.gamma(mp.mpf(-4) / 3), 25)}")

    print("# T_{1,3} at the grazing limit x = 1e-300 (expect -3); tau > 0 takes hyperu,")
    print("# because the connection formula cancels e^tau-scale terms there")
    x, c = mp.mpf(10) ** -300, mp.mpf(5) / 3
    for v in [1, -1]:
        tau = -mp.mpf(v) ** 3 / (9 * x)
        u = mp.hyperu(-c, mp.mpf(2) / 3, tau) if tau > 0 else u_real(-c, mp.mpf(2) / 3, tau)
        print(f"  v={v}: {mp.nstr(v ** 5 - 2 * mp.mpf(9) ** c * x ** c * u, 25)}")

    print("# PDE residual constant (v T_x - A T_vv)/v^3, expect -20 A^(-3/2)")
    for A in [1, 2]:
        x, v = mp.mpf("0.7"), mp.mpf("0.9")
        dx = mp.diff(lambda xx: tricomi(3, A, xx, v), x)
        dvv = mp.diff(lambda vv: tricomi(3, A, x, vv), v, 2)
        print(f"  A={A}: {mp.nstr((v * dx - A * dvv) / v ** 3, 18)}"
              f"  vs {mp.nstr(-20 * mp.mpf(A) ** mp.mpf('-1.5'), 18)}")

    print("# boundary trace and evenness decay (gap/x -> const)")
    print(f"  T(1e-12, 0.5) = {mp.nstr(tricomi(3, 1, mp.mpf(1) / 10 ** 12, 0.5), 12)} (expect -3*(0.5)^5)")
    mp.mp.dps = 700  # the gap computation cancels e^(1/(9x))-scale terms
    for x in [1e-2, 1e-3, 1e-4]:
        gap = abs(tricomi(3, 1, x, 1) - tricomi(3, 1, x, -1))
        print(f"  x={x:g}: gap={mp.nstr(gap, 10)}  gap/x={mp.nstr(gap / mp.mpf(x), 8)}")


if __name__ == "__main__":
    main()

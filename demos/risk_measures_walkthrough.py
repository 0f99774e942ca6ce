#!/usr/bin/env python3
"""Walkthrough: tail-risk measures on the Beta-Kotz distribution.

Covers the quantile equation and its unique root, closed forms vs the
numeric solver, CVaR's two computation routes, economic capital, and
the normal / Student-t location-scale baselines.

Run from the repository root:  python demos/risk_measures_walkthrough.py
"""

import numpy as np

from betakotz.distribution import BetaKotzParams, KotzGeneratorParams, cdf, from_kotz
from betakotz import risk

ALPHA = 0.99

print("=" * 72)
print("1. From generator parameters to a shape pair")
print("=" * 72)
k = KotzGeneratorParams(n1=2, n2=4, t1=1, t2=1)
p = from_kotz(k)
print(f"Kotz generators (n1={k.n1}, n2={k.n2}, t1={k.t1}, t2={k.t2})"
      f" -> shapes (a={p.a}, b={p.b})")
print("t1 = t2 = 1 recovers the plain Beta(n1/2, n2/2) special case.")

print()
print("=" * 72)
print("2. The quantile is the unique root of F(x) - alpha on (0, 1)")
print("=" * 72)
p = BetaKotzParams(2.0, 3.0)
v = risk.var_numeric(p, ALPHA)
print(f"shapes (2, 3), alpha = {ALPHA}:")
print(f"  var_numeric     = {v:.12f}")
print(f"  CDF residual    = {cdf(p, v) - ALPHA:+.2e}")
grid = np.linspace(0.0, 1.0, 2001)[1:-1]
signs = np.sign([cdf(p, float(x)) - ALPHA for x in grid])
print(f"  sign changes of F(x) - alpha on a 2001-point grid: "
      f"{int(np.sum(signs[:-1] != signs[1:]))} (uniqueness)")

print()
print("=" * 72)
print("3. Closed forms agree with the numeric root")
print("=" * 72)
print(f"{'a':>4} {'b':>4} {'closed form':>16} {'numeric':>16} {'gap':>10}")
for a, b in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]:
    q = BetaKotzParams(a, b)
    vc = risk.var_closed(q, ALPHA)
    vn = risk.var_numeric(q, ALPHA)
    print(f"{a:>4} {b:>4} {vc:>16.12f} {vn:>16.12f} {abs(vc - vn):>10.1e}")

print()
print("=" * 72)
print("4. CVaR: VaR + expected excess (density) vs the elementary form")
print("=" * 72)
for a, b in [(1.0, 3.0), (2.0, 3.0), (0.5, 30.0)]:
    q = BetaKotzParams(a, b)
    level, tail = risk._var_pair(q, ALPHA)
    density = risk._density_cvar(q, ALPHA, level, tail)
    elementary = risk._elementary_cvar(q, ALPHA, level, tail)
    print(f"shapes ({a:g}, {b:g}): density {density:.12f}   "
          f"elementary {elementary:.12f}   gap {abs(density - elementary):.1e}")
print("cvar() returns the density route, always checks it by the elementary")
print("form mean + VaR^a (1 - VaR)^b / (B(a, b) (a + b) (1 - alpha)), and")
print("raises if they disagree beyond 1e-8.")

print()
print("=" * 72)
print("5. The full report bundle")
print("=" * 72)
for a, b in [(1.0, 2.0), (5.1, 5.1), (0.5, 30.0)]:
    r = risk.report(BetaKotzParams(a, b), ALPHA)
    print(f"shapes ({a:g}, {b:g}): var {r.var:.6f}  cvar {r.cvar:.6f}  "
          f"ec {r.ec:.6f}  mean {r.mean:.6f}  [{r.method.value}]")
print("Invariants: cvar >= var, ec = var - mean (bitwise), var in (0, 1).")

print()
print("=" * 72)
print("6. Location-scale baselines")
print("=" * 72)
print(f"normal   mu=0 sigma=1: var {risk.var_normal(0, 1, ALPHA):.6f}   "
      f"cvar {risk.cvar_normal(0, 1, ALPHA):.6f}")
for nu in (3.0, 5.0, 30.0):
    print(f"student  nu={nu:>4.1f}:      var {risk.var_student(0, 1, nu, ALPHA):.6f}   "
          f"cvar {risk.cvar_student(0, 1, nu, ALPHA):.6f}")
print("Heavier tails push both measures out; large nu approaches the normal.")

"""CVaR by quadrature of the quantile function: a test oracle.

(1/(1-alpha)) times the integral of the quantile over [alpha, 1], by
64-node Gauss-Legendre: a plain panel up to the midpoint, then
nu = 1 - u^2 on the last panel to tame the quantile's endpoint
steepness.  It costs 128 root solves, about a thousand incomplete-beta
calls, which is why the library cross-checks CVaR by the density route
instead; here it stays as a third route, independent of both.
"""

import math

from numpy.polynomial.legendre import leggauss

from betakotz.risk import var_numeric

GL_NODES, GL_WEIGHTS = (nodes.tolist() for nodes in leggauss(64))


def quadrature_cvar(p, a_level):
    split = a_level + 0.5 * (1.0 - a_level)
    half = 0.5 * (split - a_level)
    mid = 0.5 * (split + a_level)
    u_max = math.sqrt(1.0 - split)
    total = 0.0
    for xi, w in zip(GL_NODES, GL_WEIGHTS):
        total += half * w * var_numeric(p, mid + half * xi)
        u = 0.5 * u_max * (xi + 1.0)
        total += 0.5 * u_max * w * 2.0 * u * var_numeric(p, 1.0 - u * u)
    return total / (1.0 - a_level)

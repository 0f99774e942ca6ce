"""CVaR test oracles, independent of the library's two routes.

`quadrature_cvar`: (1/(1-alpha)) times the integral of the quantile over
[alpha, 1], by 64-node Gauss-Legendre: a plain panel up to the midpoint,
then nu = 1 - u^2 on the last panel to tame the quantile's endpoint
steepness.  It costs 128 root solves, about a thousand incomplete-beta
calls, which is why the library does not run it.

`identity_cvar`: the paper's tail-expectation identity, one incomplete
beta at the solved VaR.  It moves with the error of VaR to first order,
so the library returns the density route instead.
"""

import math

from numpy.polynomial.legendre import leggauss

from betakotz.distribution import mean
from betakotz.risk import var_numeric
from betakotz.specfun import _inc_beta_tails, ln_beta

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


def identity_cvar(p, a_level, q, tail):
    # E[X | X > q] = mean I_{1-q}(b, a+1) / (1 - alpha), at q and tail = 1 - q.
    b, a1 = p.b, p.a + 1.0
    return mean(p) * _inc_beta_tails(b, a1, tail, q, ln_beta(b, a1))[0] / (1.0 - a_level)

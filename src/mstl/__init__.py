"""Forward and inverse scattering for the matrix Sturm-Liouville operator.

The operator is -Y'' + Q(x) Y = rho^2 Y on the whole line, with a self-adjoint
m x m matrix potential Q of finite first moment.  The package computes
scattering data (reflection matrices, bound states, weight matrices) from a
sampled potential, reconstructs the potential from scattering data through the
Gelfand-Levitan-Marchenko equation, builds reflectionless (multi-soliton)
potentials in closed form, validates admissibility conditions on scattering
data, and follows reflectionless data under the matrix KdV flow.
"""

from mstl import conditions, domain, forward, glm, kdv, solitons

__version__ = "0.1.0"

__all__ = ["conditions", "domain", "forward", "glm", "kdv", "solitons", "__version__"]

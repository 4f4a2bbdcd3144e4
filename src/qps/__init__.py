"""Phase-space toolkit for odd-dimensional quantum systems.

Discrete s-parametrized quasiprobability functions (Glauber-Sudarshan,
Wigner, Husimi) built on a clock/shift operator basis with Jacobi-theta
kernels, plus Radon-transform tomography, a scattering-circuit simulator,
and qudit teleportation in phase space.

Each module's `__all__` is its one list of public names; the package re-exports
them all, but `qps.theta` and `qps.teleport` stay the modules of those functions.
"""

import sys

from .lattice import *
from .theta import *
from .schwinger import *
from .quasiprob import *
from .tomography import *
from .teleport import *

# the star imports bound the functions over the modules (`from . import` finds them too)
theta, teleport = sys.modules[__name__ + ".theta"], sys.modules[__name__ + ".teleport"]

__version__ = "0.1.0"

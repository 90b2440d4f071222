"""Two-photon charging of a bosonic quantum battery.

A single harmonic mode driven through its pair ladder (b†b† + bb) by a
unit-area pulse charges exponentially: the stored energy follows
omega_b sinh^2(zeta A(t)) where A is the accumulated pulse area. This
package provides the closed-form figures of merit, the second-moment
equations of motion with an adaptive integrator, an independent
truncated Fock-space verification engine (unitary, carrier-resolved and
lossy), and a CLI that emits all of it as machine-readable tables.
"""

from . import dynamics, fock, merit, pulses, specfun
from .dynamics import *
from .fock import *
from .merit import *
from .pulses import *
from .specfun import *

__version__ = "0.1.0"

# each public name is listed once, in the __all__ of the module defining it
__all__ = [
    *dynamics.__all__,
    *fock.__all__,
    *merit.__all__,
    *pulses.__all__,
    *specfun.__all__,
    "__version__",
]

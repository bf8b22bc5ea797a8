"""Reference values that share no code with the solvers or scipy.special.

Bessel zeros and spherical-harmonic multiplicities come from the test
suite's oracles (`tests/_oracles.py`: power series plus bisection), loaded
by path, so the eigenvalue witnesses are independent of `driftspectra`.
"""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "_oracles", Path(__file__).resolve().parents[1] / "tests" / "_oracles.py")
_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracles)

harmonic_multiplicity = _oracles.harmonic_multiplicity

# j_{0,1}^2, the value the acceptance suite freezes for the unit flat disk
J01_SQ = 5.783185962947


def flat_disk_spectrum(r0: float, cutoff: float) -> list:
    """(lambda, k, i, multiplicity) of the flat zero-drift 2-ball up to cutoff.

    lambda_{k,i} = j_{k,i}^2 / r0^2; level k >= 1 carries cos and sin modes.
    """
    x_max = math.sqrt(cutoff) * r0
    out = []
    k = 0
    while True:
        zeros = []
        while (z := _oracles.bessel_zero(k, len(zeros) + 1)) < x_max:
            zeros.append(z)
        if not zeros:
            return sorted(out)
        out += [(z * z / (r0 * r0), k, i + 1, 1 if k == 0 else 2)
                for i, z in enumerate(zeros)]
        k += 1


def closed_form_principal(m: int, kappa: float, r0: float, drifted: bool):
    """Principal eigenvalue where a closed form exists, else None.

    Flat zero-drift 2-balls give J01^2 / r0^2; zero-drift 3-dimensional space
    forms give pi^2 / r0^2 - kappa.
    """
    if drifted:
        return None
    if m == 2 and kappa == 0.0:
        return J01_SQ / (r0 * r0)
    if m == 3:
        return math.pi ** 2 / (r0 * r0) - kappa
    return None

"""Transport substrate: the TRANSPORT-library equivalent (paper §2.2-2.5).

Implements mixture-averaged molecular transport from kinetic theory:

* Lennard-Jones collision integrals via the Neufeld et al. fits
  (:mod:`repro.transport.collision`),
* pure-species viscosity and conductivity (Chapman-Enskog + modified
  Eucken) and binary diffusion coefficients, combined with Wilke and
  Mathur mixture rules and the mixture-averaged diffusion formula (17)
  of the paper (:mod:`repro.transport.mixture`),
* cheap constant-Lewis-number / power-law models for verification and
  for the performance model problems (:mod:`repro.transport.simple`).
"""

from repro.transport.collision import omega11, omega22
from repro.transport.mixture import MixtureAveragedTransport
from repro.transport.simple import ConstantLewisTransport, PowerLawTransport

__all__ = [
    "omega11",
    "omega22",
    "MixtureAveragedTransport",
    "ConstantLewisTransport",
    "PowerLawTransport",
]

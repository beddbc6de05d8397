"""Chemistry substrate: CHEMKIN-equivalent thermodynamics and kinetics.

The paper links S3D against the CHEMKIN-II and TRANSPORT libraries (§2.6).
This package reimplements the parts S3D uses:

* NASA-7 polynomial thermodynamics (:mod:`repro.chemistry.thermo`),
* elementary / three-body / pressure-falloff reaction kinetics
  (:mod:`repro.chemistry.kinetics`),
* a mechanism container with mixture helpers
  (:mod:`repro.chemistry.mechanism`),
* a CHEMKIN-like mechanism text parser (:mod:`repro.chemistry.parser`),
* built-in mechanisms (:mod:`repro.chemistry.mechanisms`): the Li et al.
  (2004) H2/air mechanism used for the lifted-flame DNS of §6 and global
  methane chemistry for the Bunsen configuration of §7,
* zero-dimensional reactors for ignition-delay studies
  (:mod:`repro.chemistry.zerod`),
* the analytical sparse source-term Jacobian
  (:mod:`repro.chemistry.jacobian`) and the per-cell implicit stiff
  integrator behind Strang splitting
  (:mod:`repro.chemistry.implicit`).

All public interfaces are SI (kg, m, s, K, J, mol); concentrations are
mol/m^3 and production rates mol/(m^3 s).
"""

from repro.chemistry.thermo import Nasa7, ThermoTable
from repro.chemistry.species import Species, element_weight
from repro.chemistry.kinetics import (
    Arrhenius,
    Reaction,
    ThirdBody,
    Falloff,
    KineticsEvaluator,
)
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.mechanisms import (
    h2_li2004,
    ch4_twostep,
)
from repro.chemistry.zerod import ConstPressureReactor, ConstVolumeReactor, ignition_delay
from repro.chemistry.jacobian import JacobianPattern, SourceTermJacobian
from repro.chemistry.implicit import ImplicitChemistry, ImplicitStats

__all__ = [
    "Nasa7",
    "ThermoTable",
    "Species",
    "element_weight",
    "Arrhenius",
    "Reaction",
    "ThirdBody",
    "Falloff",
    "KineticsEvaluator",
    "Mechanism",
    "h2_li2004",
    "ch4_twostep",
    "ConstPressureReactor",
    "ConstVolumeReactor",
    "ignition_delay",
    "JacobianPattern",
    "SourceTermJacobian",
    "ImplicitChemistry",
    "ImplicitStats",
]

"""The diffusive-flux kernel of Fig 4, naive and restructured.

Two layers of reproduction:

* NumPy kernels (:func:`naive_diffusive_flux` vs
  :func:`optimized_diffusive_flux`) computing S3D's species diffusive
  flux exactly as the Fortran in Fig 4 does — the naive version mirrors
  the original loop order (direction, then species, with full-field
  array statements and fresh temporaries per iteration, and the
  last-species flux accumulated statement-by-statement), the optimized
  version hoists invariants, fuses, works in place, and batches over
  species. Benchmarked against each other in
  ``benchmarks/bench_fig05_loopopt.py``.

* An IR model (:func:`diffflux_program`) of the same nest for the
  LoopTool transform pipeline + cache simulation, demonstrating *why*
  the restructuring wins: the per-statement full-field sweeps of the
  original evict each diffFlux slice from cache before the
  last-species accumulation reuses it.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import species_diffusive_flux_dir
from repro.loopopt.ir import ArrayRef, Assign, Guard, Loop, Program


# ----------------------------------------------------------------------
# NumPy kernels
# ----------------------------------------------------------------------
def naive_diffusive_flux(Ys, grad_Ys, Ds, grad_mixMW, grad_T=None, T=None,
                         theta=None, baro=False, thermdiff=False):
    """Fig 4's loop nest, as naturally written.

    Parameters
    ----------
    Ys:
        Mass fractions, shape ``(ns,) + S`` (``S`` the spatial shape).
    grad_Ys:
        Mass-fraction gradients, shape ``(ns, 3) + S``.
    Ds:
        Mixture-averaged diffusivities times density, ``(ns,) + S``.
    grad_mixMW:
        Gradient of ln(mixture molecular weight), ``(3,) + S``.
    grad_T, T, theta:
        Temperature gradient ``(3,)+S``, temperature ``S`` and thermal
        diffusion ratios ``(ns,)+S`` — used when ``thermdiff``.
    baro:
        Exercise the barodiffusion branch (here a zero contribution, as
        in the paper's adiabatic open flames — the *branch* is what
        matters for unswitching).

    Returns ``diffFlux`` of shape ``(ns, 3) + S``; species ``ns-1``
    carries minus the sum of the others (mass conservation, eq. 15).
    """
    ns = Ys.shape[0]
    spatial = Ys.shape[1:]
    flux = np.zeros((ns, 3) + spatial)
    for m in range(3):
        for n in range(ns - 1):
            # fresh temporaries every iteration, as naturally written
            tmp = grad_Ys[n, m] + Ys[n] * grad_mixMW[m]
            flux[n, m] = -Ds[n] * tmp
            if baro:
                flux[n, m] = flux[n, m] + 0.0 * Ds[n]
            if thermdiff:
                flux[n, m] = flux[n, m] - Ds[n] * theta[n] * (grad_T[m] / T)
            flux[ns - 1, m] = flux[ns - 1, m] - flux[n, m]
    return flux


def optimized_diffusive_flux(Ys, grad_Ys, Ds, grad_mixMW, grad_T=None, T=None,
                             theta=None, baro=False, thermdiff=False):
    """Restructured kernel: unswitched, hoisted, fused, in place.

    Delegates the per-direction body to
    :func:`repro.core.kernels.species_diffusive_flux_dir` — the same
    fused multiply-add chain the batched RHS engine sweeps, so the Fig 4
    benchmark exercises the production kernel. Results match the naive
    version up to floating-point reassociation (the restructuring
    reorders commutative products and the last-species reduction), i.e.
    to ~1e-14 relative.
    """
    ns = Ys.shape[0]
    spatial = Ys.shape[1:]
    flux = np.empty((ns, 3) + spatial)
    neg_ds = np.negative(Ds[: ns - 1])  # hoisted: reused by every direction
    soret_pref = glnt = tmp = None
    if thermdiff:
        # fold -Ds*theta into one prefactor; the gradient of ln T varies
        # per direction and stays a separate buffer
        soret_pref = neg_ds * theta[: ns - 1]
        glnt = np.empty(spatial)
        tmp = np.empty((ns - 1,) + spatial)
    for m in range(3):
        body = flux[: ns - 1, m]
        if thermdiff:
            np.divide(grad_T[m], T, out=glnt)
        species_diffusive_flux_dir(
            Ys[: ns - 1], grad_Ys[: ns - 1, m], neg_ds, grad_mixMW[m],
            out=body, soret_pref=soret_pref, grad_lnT_dir=glnt, tmp=tmp,
        )
        if baro:
            pass  # zero contribution; branch specialized away
        np.sum(body, axis=0, out=flux[ns - 1, m])
        np.negative(flux[ns - 1, m], out=flux[ns - 1, m])
    return flux


# ----------------------------------------------------------------------
# IR model of the same nest
# ----------------------------------------------------------------------
def diffflux_program(n_species: int = 9, n_cells: int = 40000,
                     thermdiff: bool = True) -> Program:
    """The Fig 4 nest in IR form (spatial dimension flattened to 1D).

    Structure mirrors the Fortran: direction and species loops explicit,
    each Fortran-90 array statement a separate full-field sweep
    (what scalarization of array syntax produces before fusion), and
    the two physics switches as guards (barodiffusion off, as in the
    paper's adiabatic open flames). ``n_cells`` defaults large
    enough that one field slice exceeds the 1 MB L2 — the paper's
    cache-thrashing regime.
    """
    ns, N = int(n_species), int(n_cells)
    arrays = {
        "Ys": (ns, N),
        "gradYs": (ns, 3, N),
        "Ds": (ns, N),
        "gradMW": (3, N),
        "soret": (ns, N),
        "tmp": (N,),
        "flux": (ns, 3, N),
    }
    i = ("i", 0)

    def nest():
        body_n = []
        # sweep 1: tmp = gradYs(n,m,:) + Ys(n,:) [stands in for the
        # multiply-add; sum semantics]
        body_n.append(Loop("i", N, [
            Assign(ArrayRef("tmp", (i,)),
                   (ArrayRef("gradYs", (("n", 0), ("m", 0), i)),
                    ArrayRef("Ys", (("n", 0), i)),
                    ArrayRef("gradMW", (("m", 0), i)))),
        ]))
        # sweep 2: flux(n,m,:) = tmp + Ds(n,:)
        body_n.append(Loop("i", N, [
            Assign(ArrayRef("flux", (("n", 0), ("m", 0), i)),
                   (ArrayRef("tmp", (i,)), ArrayRef("Ds", (("n", 0), i)))),
        ]))
        # optional branches, each its own sweep (as written)
        body_n.append(Guard("baro", [
            Loop("i", N, [
                Assign(ArrayRef("flux", (("n", 0), ("m", 0), i)),
                       (ArrayRef("Ds", (("n", 0), i)),), accumulate=True),
            ]),
        ]))
        body_n.append(Guard("thermdiff", [
            Loop("i", N, [
                Assign(ArrayRef("flux", (("n", 0), ("m", 0), i)),
                       (ArrayRef("soret", (("n", 0), i)),), accumulate=True),
            ]),
        ]))
        # sweep 3: last-species accumulation — the red-arrow reuse of
        # Fig 4 that misses cache when N is large
        body_n.append(Loop("i", N, [
            Assign(ArrayRef("flux", (ns - 1, ("m", 0), i)),
                   (ArrayRef("flux", (("n", 0), ("m", 0), i)),),
                   accumulate=True),
        ]))
        return [Loop("m", 3, [Loop("n", ns - 1, body_n)])]

    return Program(arrays=arrays, flags={"baro": False, "thermdiff": thermdiff},
                   body=nest())

"""Per-layer probes: benchmark-owned timings of public calls.

Every probe calls one public function of one layer on the workload's
live end-of-block state, after the timed region, inside a span of the
benchmark's recorder. A probe's value is the median over its calls; the
first call only calibrates the repeat count (it may pay lazy set-up).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.chemistry.implicit import ImplicitChemistry
from repro.chemistry.jacobian import SourceTermJacobian
from repro.core.erk import ERKIntegrator
from repro.core.state import strang_reactor_inputs

MIN_CALLS = 5
MAX_CALLS = 40


class Prober:
    """Times calls under a per-probe time budget."""

    def __init__(self, rec, budget_s: float):
        self.rec = rec
        self.budget_s = budget_s
        #: probe name -> {"median_s", "min_s", "calls"}
        self.stats: dict = {}
        self.calls = 0
        self.failures: list = []

    def time(self, name: str, fn):
        """Median seconds per call of ``fn`` (None if it raised)."""
        samples = []
        try:
            first = self._once(name, fn)
            reps = max(MIN_CALLS,
                       min(MAX_CALLS, int(self.budget_s / max(first, 1e-9))))
            for _ in range(reps):
                samples.append(self._once(name, fn))
        except Exception as err:  # a failing probe is a failed operation
            self.calls += 1
            self.failures.append(f"probe {name}: {type(err).__name__}: {err}")
            return None
        self.stats[name] = {"median_s": statistics.median(samples),
                            "min_s": min(samples), "calls": len(samples)}
        return self.stats[name]["median_s"]

    def _once(self, name, fn) -> float:
        self.calls += 1
        with self.rec.span(f"probe:{name}"):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0


class NullRHS:
    """``du/dt = 0``: leaves only the integrator's own array traffic."""

    supports_out = True

    def __call__(self, t, u, out=None):
        if out is None:
            return np.zeros_like(u)
        out[...] = 0.0
        return out


def scaled(seconds, factor):
    return None if seconds is None else seconds * factor


def kernel_probes(prober: Prober, objs: dict, out: dict) -> None:
    """core / chemistry / transport probes on ``objs`` (serial kernels
    bound to the workload's state)."""
    state, rhs = objs["state"], objs["rhs"]
    mech, grid = state.mech, state.grid
    npts = grid.n_points
    u = state.u
    buf = np.empty_like(u)
    us_pt = 1e6 / npts

    def rhs_eval():
        state.mark_modified()  # defeat the per-buffer property memo
        rhs(0.0, u, out=buf)

    out["core.rhs.us_per_point_eval"] = scaled(
        prober.time("rhs_eval", rhs_eval), us_pt)

    sweep_s = []
    for axis, label in enumerate("xyz"):
        key = f"core.derivatives.ns_per_point_sweep_{label}"
        if axis >= grid.ndim:
            out[key] = None
            continue
        op = rhs.ops[axis]
        t = prober.time(f"derivative_sweep_{label}",
                        lambda op=op, axis=axis: op.apply_stack(u, axis,
                                                                out=buf))
        out[key] = scaled(t, 1e9 / u.size)
        if t is not None:
            sweep_s.append(t)
    # read the stack once, write it once: computed, not measured, bytes
    out["core.derivatives.computed_gbps"] = (
        2.0 * u.nbytes / statistics.mean(sweep_s) / 1e9 if sweep_s else None)

    scratch = u.copy()

    def filter_pass():
        for axis, filt in enumerate(objs["filters"]):
            filt.apply(scratch, axis=1 + axis, out=scratch)

    out["core.filters.ns_per_point_pass"] = scaled(
        prober.time("filter_pass", filter_pass), 1e9 / u.size)

    erk, null = ERKIntegrator(objs["scheme"]), NullRHS()
    out["core.erk.ns_per_point_step_null"] = scaled(
        prober.time("erk_step_null", lambda: erk.step(null, 0.0, u, 1e-9)),
        1e9 / u.size)

    out["core.state.primitives_us_per_point"] = scaled(
        prober.time("primitives", state.primitives), us_pt)

    def stable_dt():
        state.mark_modified()
        rhs.stable_dt(cfl=0.8)

    out["core.stable_dt.us_per_point"] = scaled(
        prober.time("stable_dt", stable_dt), us_pt)

    rho, _, T, p, Y, _ = state.primitives()
    e_int = mech.int_energy_mass(T, Y)
    out["chemistry.thermo.newton_us_per_point"] = scaled(
        prober.time("thermo_newton",
                    lambda: mech.temperature_from_energy(e_int, Y,
                                                         T_guess=T)), us_pt)
    C = mech.concentrations(rho, Y)
    out["chemistry.kinetics.us_per_point_eval"] = scaled(
        prober.time("kinetics",
                    lambda: mech.kinetics.production_rates(T, C)), us_pt)
    transport = objs["transport"]
    out["transport.evaluate_us_per_point"] = scaled(
        prober.time("transport_evaluate",
                    lambda: transport.evaluate(T, p, Y)), us_pt)


def implicit_probes(prober: Prober, objs: dict, half_dt: float,
                    out: dict) -> None:
    """Strang workload: one implicit half-step and one Jacobian over
    all cells, through objects of the benchmark's own."""
    state = objs["state"]
    mech = state.mech
    rho, e_int, Y = strang_reactor_inputs(state.u, state.ndim,
                                          mech.n_species)
    cells = rho.size
    chem = ImplicitChemistry(mech, closure="constant-volume", method="rosw2")
    out["chemistry.implicit.us_per_cell_halfstep"] = scaled(
        prober.time("implicit_halfstep",
                    lambda: chem.advance_energy(rho, e_int, Y, half_dt)),
        1e6 / cells)
    T = mech.temperature_from_energy(e_int, Y)
    stj = SourceTermJacobian(mech, mode="constant-volume")
    out["chemistry.jacobian.us_per_cell_eval"] = scaled(
        prober.time("jacobian", lambda: stj.jacobian(T, Y, rho=rho)),
        1e6 / cells)


def checkpoint_probes(prober: Prober, case, out: dict) -> None:
    """io: save and restore through the workload's own ring."""
    sim0, saves0 = case.fs.elapsed(), prober.calls
    save_s = prober.time("checkpoint_save", case.checkpoint_save)
    # the simulated parallel-file-system cost model: deterministic
    sim_per_save = (case.fs.elapsed() - sim0) / (prober.calls - saves0)
    out["io.restart.save_ms"] = scaled(save_s, 1e3)
    out["io.restart.load_ms"] = scaled(
        prober.time("checkpoint_restore", case.checkpoint_restore), 1e3)
    nbytes = case.checkpoint_bytes()
    out["io.restart.bytes_per_checkpoint"] = float(nbytes)
    out["io.restart.mb_per_s"] = (
        nbytes / save_s / 1e6 if save_s else None)
    out["io.fs.sim_seconds_per_checkpoint"] = (
        sim_per_save if save_s else None)

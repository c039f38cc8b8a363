"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from dynsub import (
    CoupledSystem,
    CouplingTopology,
    LinearSubstructure,
    PartitionedSolver,
    SignalSpec,
    SolverConfig,
    SuspensionElement,
    analytic_sdof,
    assemble_first_order,
    assemble_global,
    finite_difference_tangent,
    generate_signal,
    mac,
    simulate,
    solve_monolithic,
    tangent_at_zero,
)
from dynsub.generators import frame_analog, frame_substructure, suspension_substructure
from dynsub.metrics import frequency_error_table, smoothness
from dynsub.reduction import (
    expanded_mode_shapes,
    full_frequencies,
    mode_shapes,
    reduce as cb_reduce,
    reduced_frequencies,
    reduced_topology,
)
from dynsub.signals import band_power_fraction
from dynsub.solver import free_step, effective_matrix

from conftest import hand_stepped, linear_suspension_analog, multisine_table


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def _desk_reduced_system(n_modes=30):
    subs, topology = frame_analog()
    red = cb_reduce(subs["frame"], n_modes)
    system = CoupledSystem(
        substructures={"frame": red.as_substructure(), "suspension": subs["suspension"]},
        topology=reduced_topology(topology, "frame", red),
        physical=("suspension",),
    )
    return system, red, subs, topology


def _suspension_inputs(system, cfg, ss=1):
    n_fine = cfg.n_steps * ss + 1
    times = np.arange(n_fine) * (cfg.dt / ss)
    susp = system.substructures["suspension"]
    table = np.zeros((n_fine, susp.n_dofs))
    table[:, list(susp.internal_dofs)] = multisine_table(times, len(susp.internal_dofs))
    return {"suspension": table}


def _interface_gap(traj, frame_bdofs, susp_bdofs, kind="u"):
    pick = traj.displacement if kind == "u" else traj.velocity
    gaps = np.column_stack([
        pick("frame", fb) - pick("suspension", sb)
        for fb, sb in zip(frame_bdofs, susp_bdofs)
    ])
    return gaps


def test_criterion_01_cb_frequency_fidelity():
    t0 = time.perf_counter()
    frame = frame_substructure()  # 200 DOFs, 4 boundary
    red = cb_reduce(frame, 30)
    full = full_frequencies(frame, 20)
    reduced = reduced_frequencies(red, 20)
    elapsed = time.perf_counter() - t0
    table = frequency_error_table(full, reduced, 20)
    worst = table.relative_errors.max()
    ok = worst <= 1e-3 and elapsed < 10.0
    _report(1, "CB frequency fidelity",
            ok, f"max relative error {worst:.2e} over first 20 modes "
                f"(limit 1e-3), runtime {elapsed:.2f} s (limit 10 s)")


def test_criterion_02_mac_fidelity():
    frame = frame_substructure()
    red = cb_reduce(frame, 30)
    full_shapes = mode_shapes(frame, 10)
    red_shapes = expanded_mode_shapes(red, 10)
    result = mac(red_shapes, full_shapes)
    diag_min = result.diagonal.min()
    off_max = result.max_off_diagonal()
    ok = diag_min >= 0.999 and off_max <= 0.01
    _report(2, "MAC fidelity",
            ok, f"diagonal min {diag_min:.6f} (>= 0.999), "
                f"off-diagonal max {off_max:.2e} (<= 0.01)")


def test_criterion_03_partitioned_vs_monolithic_all_linear():
    t0 = time.perf_counter()
    frame = frame_substructure()
    susp = linear_suspension_analog()
    topo = CouplingTopology(constraints=tuple(
        (("frame", frame.boundary_dofs[e], 1), ("suspension", 4 + e, -1)) for e in range(4)
    ))
    subs = {"frame": frame, "suspension": susp}
    system = CoupledSystem(substructures=subs, topology=topo)
    cfg = SolverConfig(dt=1e-3, duration=1.0)
    inputs = _suspension_inputs(system, cfg)
    part = simulate(system, cfg, inputs)
    mono = solve_monolithic(assemble_global(subs, topo), cfg, inputs)
    worst = 0.0
    for e in range(4):
        bdof = frame.boundary_dofs[e]
        for traj_sub, dof in (("frame", bdof), ("suspension", 4 + e)):
            a = part.displacement(traj_sub, dof)
            b = mono.displacement(traj_sub, dof)
            rel = np.mean((a - b) ** 2) / np.mean(b**2)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(3, "partitioned vs monolithic equivalence (all-linear)",
            ok, f"worst boundary relative MSE {worst:.2e} (<= 1e-6), "
                f"runtime {elapsed:.2f} s (limit 30 s)")


def test_criterion_04_soft_coupling_compatibility():
    system, red, subs, topology = _desk_reduced_system()
    frame_b = tuple(red.reduced_boundary_index(d) for d in subs["frame"].boundary_dofs)
    susp_b = subs["suspension"].boundary_dofs

    # velocity compatibility: exact (to solver tolerance) at every step
    cfg = SolverConfig(dt=1e-3, duration=0.5)
    traj = simulate(system, cfg, _suspension_inputs(system, cfg))
    v_gap = _interface_gap(traj, frame_b, susp_b, kind="v")
    v_mag = np.column_stack([
        np.abs(traj.velocity("frame", fb)) + np.abs(traj.velocity("suspension", sb))
        for fb, sb in zip(frame_b, susp_b)
    ])
    floor = 1e-6 * max(v_mag.max(), 1.0)
    rel_resid = np.abs(v_gap) / np.maximum(v_mag, floor)
    v_ok = rel_resid.max() <= 1e-10

    # matched-step displacement gap: machine level (far below soft tolerance)
    u_gap_matched = np.abs(_interface_gap(traj, frame_b, susp_b)).max()
    u_scale = max(abs(traj.displacement("suspension", susp_b[0])).max(), 1e-30)
    matched_ok = u_gap_matched <= 1e-12 * max(1.0, u_scale)

    # genuinely soft configuration (sub-cycling): gap shrinks at order >= 1
    gaps = {}
    for dt in (1e-3, 5e-4):
        cfg_ss = SolverConfig(dt=dt, duration=0.5, subcycles=10)
        traj_ss = simulate(system, cfg_ss, _suspension_inputs(system, cfg_ss, ss=10))
        gaps[dt] = np.abs(_interface_gap(traj_ss, frame_b, susp_b)).max()
    order = np.log2(gaps[1e-3] / gaps[5e-4])
    order_ok = order >= 1.0

    ok = v_ok and matched_ok and order_ok
    _report(4, "soft-coupling compatibility",
            ok, f"velocity residual {rel_resid.max():.2e} (<= 1e-10); matched-step "
                f"displacement gap {u_gap_matched:.2e}; sub-cycled gap "
                f"{gaps[1e-3]:.2e} -> {gaps[5e-4]:.2e}, order {order:.2f} (>= 1)")


def test_criterion_05_trapezoidal_order():
    osc = LinearSubstructure(mass=[[1.0]], damping=[[0.0]], stiffness=[[1.0]],
                             internal_dofs=(), boundary_dofs=(0,))
    system = CoupledSystem(substructures={"osc": osc}, topology=CouplingTopology(()))
    errs = {}
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(dt=dt, duration=1.0)
        traj = simulate(system, cfg, initial={"osc": np.array([1.0, 0.0])})
        u_exact, _ = analytic_sdof(1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
        errs[dt] = abs(traj.states["osc"][-1, 0] - u_exact[0])
    ratio = errs[1e-3] / errs[5e-4]
    ok = 3.5 <= ratio <= 4.5
    _report(5, "integrator order",
            ok, f"halving dt reduced the t=1 s displacement error by {ratio:.2f}x "
                f"(required 3.5..4.5)")


def test_criterion_06_subcycling_degeneracy():
    system, _, _, _ = _desk_reduced_system()
    cfg = SolverConfig(dt=1e-3, duration=0.2, subcycles=1)
    inputs = _suspension_inputs(system, cfg)
    inner = simulate(system, cfg, inputs)
    reference, _, _ = hand_stepped(system, cfg, inputs)  # a free step per substructure and step
    worst = max(
        np.abs(inner.states[sid] - reference[sid]).max() for sid in system.substructures
    )
    ok = worst <= 1e-12
    _report(6, "sub-cycling degeneracy at ss=1",
            ok, f"max per-sample deviation {worst:.2e} (<= 1e-12)")


def test_criterion_07_subcycling_smoothness():
    system, _, subs, _ = _desk_reduced_system()
    wheel = subs["suspension"].internal_dofs[0]
    cfg10 = SolverConfig(dt=1e-3, duration=0.2, subcycles=10)
    traj10 = simulate(system, cfg10, _suspension_inputs(system, cfg10, ss=10))  # must not diverge
    cfg1 = SolverConfig(dt=1e-3, duration=0.2, subcycles=1)
    traj1 = simulate(system, cfg1, _suspension_inputs(system, cfg1))
    fine = traj10.fine_states["suspension"][:, wheel]
    coarse = traj1.displacement("suspension", wheel)
    s_fine = smoothness(fine, cfg10.dt / 10).max_increment
    s_coarse = smoothness(coarse, cfg1.dt).max_increment
    ok = s_fine < s_coarse
    _report(7, "sub-cycling smoothness",
            ok, f"max wheel-displacement increment {s_fine:.2e} at ss=10 fine sampling "
                f"vs {s_coarse:.2e} at ss=1 (strictly smaller); no divergence in 0.2 s")


def test_criterion_08_speedup():
    n = 1000
    frame = frame_substructure(n=n)
    susp = suspension_substructure()
    topo = CouplingTopology(constraints=tuple(
        (("frame", frame.boundary_dofs[e], 1), ("suspension", susp.boundary_dofs[e], -1))
        for e in range(4)
    ))
    subs = {"frame": frame, "suspension": susp}
    cfg = SolverConfig(dt=1e-3, duration=1.0)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    table = np.zeros((cfg.n_steps + 1, susp.n_dofs))
    table[:, list(susp.internal_dofs)] = multisine_table(times, 4)
    inputs = {"suspension": table}

    t0 = time.perf_counter()
    red = cb_reduce(frame, 30)
    reduced_system = CoupledSystem(
        substructures={"frame": red.as_substructure(), "suspension": susp},
        topology=reduced_topology(topo, "frame", red),
        physical=("suspension",),
    )
    solver = PartitionedSolver(reduced_system, cfg)
    asys = assemble_global(subs, topo)
    offline = time.perf_counter() - t0

    t0 = time.perf_counter()
    solver.run(inputs)
    online_partitioned = time.perf_counter() - t0

    t0 = time.perf_counter()
    solve_monolithic(asys, cfg, inputs)
    online_monolithic = time.perf_counter() - t0

    speedup = online_monolithic / online_partitioned
    ok = speedup >= 10.0
    _report(8, "online speedup of the reduced partitioned solve",
            ok, f"{n}-DOF frame: monolithic {online_monolithic:.2f} s vs partitioned "
                f"{online_partitioned:.3f} s online ({speedup:.1f}x, >= 10x); "
                f"offline (reduction + factorization + assembly) {offline:.2f} s, reported separately")


def test_criterion_09_tangent_correctness():
    element = SuspensionElement(mass=0.160, k1=35.0, c1=0.65, c2=10.0, c3=0.55)
    expected = 0.65 + 10.0 / 0.55
    sub = suspension_substructure(n_elements=1)
    analytic = tangent_at_zero(sub)
    entry = analytic[2, 2]  # wheel momentum row, wheel velocity column
    exact_ok = entry == pytest.approx(expected, rel=1e-14)
    form = assemble_first_order(sub)
    fd = finite_difference_tangent(form.restoring, form.state_size, step=1e-6)
    rel_err = np.abs(fd - analytic).max() / np.abs(analytic).max()
    fd_ok = rel_err <= 1e-6
    ok = bool(exact_ok and fd_ok and element.tangent_damping == pytest.approx(expected))
    _report(9, "tangent correctness",
            ok, f"damping entry {entry:.12f} (c1 + c2/c3 = {expected:.12f}); "
                f"finite-difference deviation {rel_err:.2e} (<= 1e-6)")


def test_criterion_10_signal_generator():
    spec = SignalSpec(kind="bandlimited_noise", sample_rate=1000.0,
                      band=(0.0, 200.0), variance=1.0, seed=0)
    x = generate_signal(spec, 100_000)
    var = float(np.var(x))
    frac = band_power_fraction(x, 1000.0, (0.0, 200.0))
    ok = abs(var - 1.0) <= 0.05 and frac > 0.99
    _report(10, "band-limited noise generator",
            ok, f"sample variance {var:.4f} (1.0 +/- 5%), "
                f"in-band power fraction {frac:.6f} (> 0.99)")

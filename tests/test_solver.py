"""Partitioned trapezoidal solver: free steps, coupling, sub-cycling."""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import dynsub.solver
from dynsub import (
    CoupledSystem,
    CouplingTopology,
    DivergenceError,
    LinearSubstructure,
    NonlinearSubstructure,
    PartitionedSolver,
    SolverConfig,
    SolverError,
    SuspensionElement,
    assemble_first_order,
    analytic_sdof,
    assemble_global,
    simulate,
    tangent_at_zero,
)
from dynsub.coupling import InterfaceOperator, _factorize
from dynsub.monolithic import solve_monolithic
from dynsub.solver import effective_matrix, free_step
from dynsub.generators import chain_substructure, frame_analog, suspension_substructure
from dynsub.reduction import reduce as cb_reduce, reduced_topology

from conftest import (
    FORCE_LAW_KINDS, first_order_forms, hand_stepped, linear_suspension_analog, multisine_table, two_banks,
    wheel_forces,
)


def sdof(m=1.0, k=1.0, c=0.0):
    return LinearSubstructure(
        mass=[[m]], damping=[[c]], stiffness=[[k]],
        internal_dofs=(), boundary_dofs=(0,),
    )


def sdof_system(**kwargs):
    return CoupledSystem(substructures={"osc": sdof(**kwargs)}, topology=CouplingTopology(()))


def subcycling_system():
    # small frame stand-in + nonlinear suspension pair
    frame = linear_suspension_analog(n_elements=2, wheel_mass=1.0, attach_mass=0.5, k1=200.0, c_visc=1.0)
    susp = suspension_substructure(n_elements=2)
    topo = CouplingTopology(constraints=(
        (("frame", 2, 1), ("suspension", 2, -1)),
        (("frame", 3, 1), ("suspension", 3, -1)),
    ))
    return CoupledSystem(substructures={"frame": frame, "suspension": susp},
                         physical=("suspension",), topology=topo)


def subcycling_inputs(system, cfg, ss=1):
    n_fine = cfg.n_steps * ss + 1
    times = np.arange(n_fine) * (cfg.dt / ss)
    susp = system.substructures["suspension"]
    table = np.zeros((n_fine, susp.n_dofs))
    table[:, :2] = multisine_table(times, 2, freqs=(3.0, 7.0, 13.0), amps=(1.0, 1.0, 0.5))
    return {"suspension": table}


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(dt=-1.0, duration=1.0)
        with pytest.raises(SolverError):
            SolverConfig(dt=1e-3, duration=1.0, subcycles=0)

    @pytest.mark.parametrize("subcycles", [2.0, 2.5, True, "2"])
    def test_subcycles_must_be_an_integer(self, subcycles):
        # 2.0 was accepted and coerced here, while ExperimentConfig refused it
        with pytest.raises(SolverError, match=f"field 'subcycles' must be an integer, got {subcycles!r}"):
            SolverConfig(dt=1e-3, duration=1.0, subcycles=subcycles)
        with pytest.raises(SolverError):
            SolverConfig(dt=1e-3, duration=0.0)

    @pytest.mark.parametrize("limit", [np.nan, 0.0, -1.0, pytest.param(10**400, id="int_beyond_float")])
    def test_divergence_limit_must_be_positive(self, limit):
        # nan used to switch the bound off, -1 to report divergence at step 1,
        # and an int that no float holds to overflow in the first check of a run
        with pytest.raises(SolverError, match="'divergence_limit'"):
            SolverConfig(dt=1e-3, duration=1.0, divergence_limit=limit)

    def test_step_count(self):
        assert SolverConfig(dt=1e-3, duration=1.0).n_steps == 1000

    def test_gamma_is_not_a_field(self):
        # the integrator is the trapezoidal rule, which no config chooses
        with pytest.raises(TypeError, match="'gamma'"):
            SolverConfig(dt=1e-3, duration=1.0, gamma=0.5)

    @pytest.mark.parametrize("dt, duration, n_steps", [
        (1e-4, 5.0, 50000), (1e-3 / 7, 1.0, 7000), (0.05, 500.0, 10000),
    ])
    def test_step_count_of_an_inexact_ratio(self, dt, duration, n_steps):
        # duration/dt is a whole number only up to round-off
        assert SolverConfig(dt=dt, duration=duration).n_steps == n_steps

    @pytest.mark.parametrize("dt, duration", [
        (0.3, 1.0), (1e-3, 0.0025), (1e-3, 0.0004), (1e-3, 0.0015), (1e-3, 1.0 + 1e-7), (1e-3, np.inf),
    ])
    def test_duration_must_be_a_whole_number_of_steps(self, dt, duration):
        # a partial last step used to be rounded away, or up to a whole step
        with pytest.raises(SolverError, match="'duration'.*'dt'"):
            SolverConfig(dt=dt, duration=duration)

    @pytest.mark.parametrize("field, value", [
        ("dt", "1e-3"), ("duration", None), ("subcycles", "10"),
        ("divergence_limit", True),
        # an int that no float holds overflowed in duration/dt
        pytest.param("duration", 10**400, id="duration-int_beyond_float"),
    ])
    def test_field_types_checked(self, field, value):
        kwargs = {"dt": 1e-3, "duration": 1.0, field: value}
        with pytest.raises(SolverError, match=repr(field)):
            SolverConfig(**kwargs)


class TestEffectiveMatrix:
    def test_hand_assembled_sdof(self):
        # m=1, k=1, c=0, dt=0.1: D = [[1, -0.05], [0.05, 1]]
        # condenses to S = m + 0.05 c + 0.05^2 k = 1.0025
        d = effective_matrix(assemble_first_order(sdof()), dt=0.1)
        assert d.matrix.shape == (1, 1)
        assert np.allclose(d.matrix, [[1.0025]], rtol=1e-15, atol=0.0)

    def test_zero_step_limit_is_mass_operator(self):
        # dt -> 0: S -> M (probe with a tiny dt; config forbids exactly 0)
        form = assemble_first_order(sdof(m=2.0, k=5.0, c=0.3))
        d = effective_matrix(form, dt=1e-300)
        assert np.array_equal(d.matrix, form.mass)

    def test_constant_over_simulation(self):
        # tangent-based S never changes: the solver factorizes each group once
        system = sdof_system()
        solver = PartitionedSolver(system, SolverConfig(dt=1e-2, duration=0.1))
        (group,) = solver._plan
        before = group.effective.matrix.copy()
        solver.run({"osc": np.ones((11, 1))})
        assert np.array_equal(group.effective.matrix, before)

    def test_singular_reported_with_parameters(self):
        bad = LinearSubstructure(
            mass=[[1.0]], damping=[[0.0]], stiffness=[[-100.0]],
            internal_dofs=(), boundary_dofs=(0,),
        )
        with pytest.raises(SolverError, match="dt=0.2"):
            effective_matrix(assemble_first_order(bad), dt=0.2)

    def test_singular_member_of_a_group_reported(self):
        # both take one inner step, so they share one stacked factorization,
        # whose pivots are judged against the larger of the two members' terms
        system = CoupledSystem(substructures={"ok": sdof(k=4.0, c=0.3), "bad": sdof(k=-100.0)},
                               topology=CouplingTopology(()))
        with pytest.raises(SolverError, match="dt=0.2"):
            PartitionedSolver(system, SolverConfig(dt=0.2, duration=1.0))

    @pytest.mark.parametrize("ss, groups", [(1, 1), (5, 2)])
    def test_factorized_once_per_group(self, monkeypatch, ss, groups):
        calls = []

        def counted(*args):
            calls.append(1)
            return effective_matrix(*args)

        monkeypatch.setattr(dynsub.solver, "effective_matrix", counted)
        PartitionedSolver(subcycling_system(), SolverConfig(dt=1e-3, duration=0.01, subcycles=ss))
        assert len(calls) == groups


def _never_singular():
    raise AssertionError("singular() called for a regular matrix")


def _stored(matrix, storage):
    matrix = np.asarray(matrix, dtype=float)
    return matrix if storage == "dense" else scipy.sparse.csr_array(matrix)


class TestSolveContract:
    """Every solve is ``coupling._factorize``: LAPACK getrs on LU factors for a dense
    matrix, SuperLU for a sparse one, under one singularity rule."""

    @pytest.fixture()
    def d(self, desk_suspension):
        return effective_matrix(assemble_first_order(desk_suspension), 1e-4)

    # right-hand sides hold the 8 momentum rows of the 8-DOF bank
    @pytest.mark.parametrize("shape", [(8,), (8, 4)])
    def test_equals_lu_solve_and_leaves_rhs_alone(self, d, shape):
        rhs = np.random.default_rng(1).standard_normal(shape)
        before = rhs.copy()
        reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(d.matrix), rhs)
        assert np.array_equal(d.solve(rhs), reference)
        assert np.array_equal(rhs, before)

    def test_wrong_length_rejected(self, d):
        with pytest.raises(ValueError):
            d.solve(np.ones(7))

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("shape", [(8,), (8, 4)])
    def test_factorize_equals_reference_solve(self, d, storage, shape):
        rhs = np.random.default_rng(2).standard_normal(shape)
        before = rhs.copy()
        solve = _factorize(_stored(d.matrix, storage), _never_singular)
        if storage == "dense":
            reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(d.matrix), rhs)
        else:
            reference = scipy.sparse.linalg.splu(
                scipy.sparse.csc_array(d.matrix), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True},
            ).solve(rhs)
        assert np.array_equal(solve(rhs), reference)
        assert np.array_equal(rhs, before)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("matrix, scale", [
        ([[1.0, 1.0], [1.0, 1.0]], None),
        ([[1.0, 0.0], [0.0, 1e-15]], None),
        ([[1.0, 0.0], [0.0, 1e-12]], 1e3),
        # finite entries whose U overflows; every pivot is far above 1e-14 of the scale
        ([[1e308, 1e308], [-1e308, 1e308]], None),
    ], ids=["zero_pivot", "pivot_below_largest_entry", "pivot_below_scale", "non_finite_factor"])
    def test_factorize_raises_what_singular_returns(self, storage, matrix, scale):
        error = SolverError("the caller's own error")
        with pytest.raises(SolverError) as raised:
            _factorize(_stored(matrix, storage), lambda: error, scale=scale)
        assert raised.value is error

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_factorize_judges_pivots_against_the_largest_entry_by_default(self, storage):
        # the pivot 1e-12 fails against scale 1e3 above, and passes against the largest entry, 1
        solve = _factorize(_stored([[1.0, 0.0], [0.0, 1e-12]], storage), _never_singular)
        assert np.array_equal(solve(np.array([1.0, 1e-12])), [1.0, 1.0])


class TestFreeStep:
    def test_zero_state_zero_force(self):
        form = assemble_first_order(sdof())
        d = effective_matrix(form, 0.01)
        y, ydot = free_step(form, d, np.zeros(2), np.zeros(2), np.zeros(1), 0.01)
        assert np.array_equal(y, np.zeros(2))
        assert np.array_equal(ydot, np.zeros(2))

    def test_single_step_local_accuracy(self):
        # undamped oscillator from [1, 0]: after one step u ~ cos(dt) + O(dt^3)
        form = assemble_first_order(sdof())
        dt = 0.01
        d = effective_matrix(form, dt)
        y0 = np.array([1.0, 0.0])
        ydot0 = np.array([0.0, -1.0])  # consistent rate: udot=v=0, vdot=-k/m u
        y1, _ = free_step(form, d, y0, ydot0, np.zeros(1), dt)
        assert abs(y1[0] - np.cos(dt)) < dt**3

    def test_global_second_order_convergence(self):
        errs = {}
        for dt in (1e-2, 5e-3):
            cfg = SolverConfig(dt=dt, duration=1.0)
            traj = simulate(sdof_system(), cfg, initial={"osc": np.array([1.0, 0.0])})
            u_exact, _ = analytic_sdof(1.0, 0.0, 1.0, 1.0, 0.0, traj.times[-1])
            errs[dt] = abs(traj.states["osc"][-1, 0] - u_exact[0])
        assert 3.5 <= errs[1e-2] / errs[5e-3] <= 4.5

    def test_energy_conserved_undamped(self):
        # trapezoidal rule preserves the discrete quadratic energy to rounding
        k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        sub = LinearSubstructure(
            mass=np.eye(3), damping=np.zeros((3, 3)), stiffness=k,
            internal_dofs=(0, 1), boundary_dofs=(2,),
        )
        system = CoupledSystem(substructures={"s": sub}, topology=CouplingTopology(()))
        cfg = SolverConfig(dt=0.05, duration=500.0)  # 10^4 steps
        y0 = np.zeros(6)
        y0[:3] = [0.3, -0.1, 0.7]
        traj = simulate(system, cfg, initial={"s": y0})
        u, v = traj.states["s"][:, :3], traj.states["s"][:, 3:]
        energy = 0.5 * (np.einsum("ij,ij->i", v, v) + np.einsum("ij,jk,ik->i", u, k, u))
        assert np.abs(energy - energy[0]).max() <= 1e-10 * energy[0]

    @pytest.mark.parametrize("kind", FORCE_LAW_KINDS)
    def test_condensed_step_equals_first_order_solve(self, kind):
        # the 2n solve D @ Ydot+ = F - R(Y~) on the derived A and tangent
        form = first_order_forms()[kind]
        n, dt = form.n_dofs, 1e-3
        rng = np.random.default_rng(5)
        y, ydot, f = rng.standard_normal(2 * n), rng.standard_normal(2 * n), rng.standard_normal(n)
        y_new, ydot_new = free_step(form, effective_matrix(form, dt), y, ydot, f, dt)

        y_pred = y + dt / 2 * ydot
        rhs = np.concatenate([np.zeros(n), f]) - form.restoring(y_pred)
        ydot_ref = np.linalg.solve(form.A + dt / 2 * form.tangent, rhs)
        y_ref = y_pred + dt / 2 * ydot_ref
        assert np.abs(ydot_new - ydot_ref).max() <= 1e-12 * np.abs(ydot_ref).max()
        assert np.abs(y_new - y_ref).max() <= 1e-12 * np.abs(y_ref).max()


class TestSimulate:
    def test_zero_input_zero_trajectory(self, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.02)
        traj = simulate(desk, cfg)
        for sid in desk.substructures:
            assert np.all(traj.states[sid] == 0.0)
        assert np.all(traj.multipliers == 0.0)

    def test_single_substructure_matches_repeated_free_steps(self):
        sub = sdof(k=4.0, c=0.3)
        system = CoupledSystem(substructures={"osc": sub}, topology=CouplingTopology(()))
        cfg = SolverConfig(dt=0.01, duration=0.2)
        forces = np.column_stack([np.cos(np.arange(cfg.n_steps + 1) * 0.3)])
        traj = simulate(system, cfg, {"osc": forces})

        form = assemble_first_order(sub)
        d = effective_matrix(form, cfg.dt)
        y = np.zeros(2)
        ydot = np.array([0.0, forces[0, 0]])  # consistent start
        for step in range(1, cfg.n_steps + 1):
            y, ydot = free_step(form, d, y, ydot, forces[step], cfg.dt)
            assert np.allclose(traj.states["osc"][step], y, atol=1e-15)

    @staticmethod
    def assert_rows_close(actual, reference):
        # each row within 1e-12 of that row's scale
        scale = np.abs(reference).max(axis=1)
        assert np.all(np.abs(actual - reference).max(axis=1) <= 1e-12 * scale)

    def test_stacked_stepping_matches_a_step_per_substructure(self, desk):
        # at ss = 1 the frame and the suspension bank are stepped as one
        # stacked form; reference: a free step per substructure, coupled by hand
        cfg = SolverConfig(dt=1e-3, duration=0.05)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        inputs = {"suspension": wheel_forces(desk, "suspension", times)}
        traj = simulate(desk, cfg, inputs)
        states, _, multipliers = hand_stepped(desk, cfg, inputs)
        for sid in desk.substructures:
            self.assert_rows_close(traj.states[sid], states[sid])
        self.assert_rows_close(traj.multipliers, multipliers)

    def test_subcycled_stepping_matches_a_hand_stepped_reference(self):
        # the suspension takes 5 inner steps at dt/5 with the ramped injection
        # of the previous multipliers, the frame one step at dt
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=5)
        inputs = subcycling_inputs(system, cfg, ss=5)
        traj = simulate(system, cfg, inputs)
        states, fine_states, multipliers = hand_stepped(system, cfg, inputs)
        for sid in system.substructures:
            self.assert_rows_close(traj.states[sid], states[sid])
        assert set(traj.fine_states) == set(fine_states) == {"suspension"}
        self.assert_rows_close(traj.fine_states["suspension"], fine_states["suspension"])
        self.assert_rows_close(traj.multipliers, multipliers)

    def test_trajectory_layout(self, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.01)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        traj = simulate(desk, cfg, {"suspension": wheel_forces(desk, "suspension", times)})
        assert len(traj.times) == cfg.n_steps + 1
        assert np.allclose(np.diff(traj.times), cfg.dt)
        assert traj.multipliers.shape == (cfg.n_steps + 1, 4)
        assert np.all(traj.multipliers[0] == 0.0)
        assert traj.states["frame"].shape == (cfg.n_steps + 1, 2 * 200)
        # accessors agree with the raw arrays
        assert np.array_equal(traj.displacement("frame", 3), traj.states["frame"][:, 3])
        assert np.array_equal(traj.velocity("frame", 3), traj.states["frame"][:, 203])

    def test_velocity_compatibility_annihilated(self, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.1)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        traj = simulate(desk, cfg, {"suspension": wheel_forces(desk, "suspension", times)})
        frame = desk.substructures["frame"]
        susp = desk.substructures["suspension"]
        residual = np.zeros((cfg.n_steps + 1, 4))
        for c in range(4):
            v_frame = traj.velocity("frame", frame.boundary_dofs[c])
            v_susp = traj.velocity("suspension", susp.boundary_dofs[c])
            residual[:, c] = v_frame - v_susp
        scale = max(np.abs(traj.states["suspension"][:, 8:]).max(), 1e-30)
        assert np.abs(residual).max() <= 1e-10 * scale

    def test_compatible_free_solutions_need_no_multipliers(self):
        # two identical oscillators, identical forcing: free solutions already
        # compatible, so the interface force stays zero
        subs = {"a": sdof(k=2.0, c=0.1), "b": sdof(k=2.0, c=0.1)}
        topo = CouplingTopology(constraints=((("a", 0, 1), ("b", 0, -1)),))
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=0.01, duration=0.3)
        f = np.column_stack([np.sin(np.arange(cfg.n_steps + 1) * 0.1)])
        traj = simulate(system, cfg, {"a": f, "b": f})
        assert np.abs(traj.multipliers).max() <= 1e-12
        assert np.allclose(traj.states["a"], traj.states["b"], atol=1e-12)

    def test_divergence_detector(self):
        bad = LinearSubstructure(
            mass=[[1.0]], damping=[[0.0]], stiffness=[[-100.0]],
            internal_dofs=(), boundary_dofs=(0,),
        )
        system = CoupledSystem(substructures={"bad": bad}, topology=CouplingTopology(()))
        cfg = SolverConfig(dt=0.1, duration=50.0)
        with pytest.raises(DivergenceError) as err:
            simulate(system, cfg, initial={"bad": np.array([1.0, 0.0])})
        assert 0 < err.value.step <= cfg.n_steps
        assert "bad" in str(err.value)

    @pytest.mark.parametrize("n, ss", [(40, 1), (40, 3), (200, 1)], ids=["propagated", "subcycled", "free_step"])
    def test_divergence_names_the_substructure_and_the_dof(self, n, ss):
        # a fast internal frame DOF breaks the limit at the first step
        subs, topo = frame_analog(n=n, boundary_dofs=(9, 19, 29, 39))
        system = CoupledSystem(substructures=subs, topology=topo, physical=("suspension",))
        internal = subs["frame"].internal_dofs[20]
        initial = np.zeros(2 * n)
        initial[n + internal] = 1e3
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=ss, divergence_limit=100.0)
        with pytest.raises(DivergenceError, match=f"'frame' diverged at step 1 in DOF {internal} ") as err:
            simulate(system, cfg, initial={"frame": initial})
        assert (err.value.step, err.value.sub_id, err.value.dof) == (1, "frame", internal)

    @pytest.mark.parametrize("n, ss", [(40, 1), (200, 1), (40, 3)], ids=["propagated", "free_step", "subcycled"])
    def test_both_solvers_name_the_largest_entry(self, n, ss):
        # the frame breaks the limit too, but wheel 0 holds the largest entry; at
        # ss = 3 the frame and the suspension are two step groups, checked together
        subs, topo = frame_analog(n=n, boundary_dofs=(9, 19, 29, 39))
        system = CoupledSystem(substructures=subs, topology=topo)
        internal = subs["frame"].internal_dofs[20]
        initial = {sid: np.zeros(2 * sub.n_dofs) for sid, sub in subs.items()}
        initial["frame"][n + internal] = 500.0
        initial["suspension"][subs["suspension"].n_dofs] = 2000.0
        asys = assemble_global(subs, topo)
        merged = np.zeros(2 * asys.n_dofs)
        merged[asys.n_dofs + asys.dof_map["frame"][internal]] = 500.0
        merged[asys.n_dofs + asys.dof_map["suspension"][0]] = 2000.0
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=ss, divergence_limit=100.0)
        for solve in (lambda: simulate(system, cfg, initial=initial),
                      lambda: solve_monolithic(asys, cfg, initial=merged)):
            with pytest.raises(DivergenceError, match="'suspension' diverged at step 1 in DOF 0 ") as err:
                solve()
            assert (err.value.step, err.value.sub_id, err.value.dof) == (1, "suspension", 0)

    @pytest.mark.parametrize("solver", ["partitioned", "monolithic"])
    def test_non_finite_state_diverges_under_an_infinite_limit(self, solver):
        # the unstable oscillator overflows to inf and then nan after about 650
        # steps; the overflow is expected here, so numpy's warnings are off
        bad = LinearSubstructure(
            mass=[[1.0]], damping=[[0.0]], stiffness=[[-100.0]],
            internal_dofs=(), boundary_dofs=(0,),
        )
        system = CoupledSystem(substructures={"bad": bad}, topology=CouplingTopology(()))
        cfg = SolverConfig(dt=0.1, duration=100.0, divergence_limit=np.inf)
        initial = np.array([1.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="'bad' diverged at step [0-9]+ in DOF 0 ") as err:
            if solver == "partitioned":
                simulate(system, cfg, initial={"bad": initial})
            else:
                solve_monolithic(assemble_global(system.substructures, system.topology), cfg, initial=initial)
        # caught at the first infinite value, before it turns into nan
        assert 600 < err.value.step < cfg.n_steps and "(|Y| = inf > inf)" in str(err.value)

    @pytest.mark.parametrize("y, named", [
        ([0.0, np.nan, np.inf, 0.0, 0.0, 0.0], ("a", 1)),  # the first non-finite entry
        ([0.0, 0.0, -5.0, 0.0, 0.0, 2.0], ("b", 1)),  # the largest
        ([0.0, 0.0, 0.0, 0.0, 3.0, 0.0], ("a", 1)),  # a velocity of a DOF that both share
    ])
    def test_divergence_names_the_first_owner_of_the_dof(self, y, named):
        with pytest.raises(DivergenceError) as err:
            dynsub.solver._check_divergence(7, 1.0, (np.array(y), {"a": np.array([0, 1]), "b": np.array([1, 2])}))
        assert (err.value.step, err.value.sub_id, err.value.dof) == (7, *named)

    @pytest.mark.parametrize("second, named", [
        ([0.0, 0.0, 9.0, 0.0], ("b", 0)),  # the largest entry of all, in the second state
        ([0.0, 0.0, 2.0, np.nan], ("b", 1)),  # a non-finite entry before any finite one
        ([0.0, 0.0, 2.0, 0.0], ("a", 1)),  # the largest, in the first state
        ([0.0, 0.0, 0.5, 0.0], ("a", 1)),  # the only state beyond the limit
    ])
    def test_divergence_names_the_worst_of_several_states(self, second, named):
        first = (np.array([0.0, 0.0, 0.0, 5.0]), {"a": np.array([0, 1])})
        with pytest.raises(DivergenceError) as err:
            dynsub.solver._check_divergence(3, 1.0, first, (np.array(second), {"b": np.array([0, 1])}))
        assert (err.value.step, err.value.sub_id, err.value.dof) == (3, *named)

    @pytest.mark.parametrize("y, limit, named", [
        ([0.0, 1e160, 0.0, 0.0], 1e150, ("a", 1)),  # y.y overflows: the scan still names the entry
        ([1e160, np.nan, 0.0, 0.0], 1e150, ("a", 1)),  # a nan is named before a larger entry
        ([np.inf, 0.0, 0.0, 0.0], np.inf, ("a", 0)),  # an infinite limit still catches an inf
    ])
    def test_divergence_bound_falls_back_to_the_scan(self, y, limit, named):
        # the product overflows or is nan without a warning, which would be an error here
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as err:
            warnings.simplefilter("error")
            dynsub.solver._check_divergence(5, limit, (np.array(y), {"a": np.array([0, 1])}))
        assert (err.value.step, err.value.sub_id, err.value.dof) == (5, *named)

    @pytest.mark.parametrize("y, limit", [
        ([0.9, -0.9, 0.9, 0.9], 1.0),  # |y| = 1.8 is beyond the limit, every entry within it
        ([1.3e154] * 4, 1.3e154),  # y.y overflows, every entry at the limit
        ([1e300, -1e300, 0.0, 0.0], np.inf),  # an infinite limit, whose square is no bound
    ])
    def test_divergence_bound_passes_entries_within_the_limit(self, y, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dynsub.solver._check_divergence(5, limit, (np.array(y), {"a": np.array([0, 1])}))

    def test_divergence_limit_configurable(self):
        bad = LinearSubstructure(
            mass=[[1.0]], damping=[[0.0]], stiffness=[[-100.0]],
            internal_dofs=(), boundary_dofs=(0,),
        )
        system = CoupledSystem(substructures={"bad": bad}, topology=CouplingTopology(()))
        lenient = SolverConfig(dt=0.1, duration=1.0, divergence_limit=1e30)
        traj = simulate(system, lenient, initial={"bad": np.array([1.0, 0.0])})
        assert np.abs(traj.states["bad"]).max() < 1e30

    def test_input_table_shape_checked(self, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.01)
        with pytest.raises(SolverError, match="columns"):
            simulate(desk, cfg, {"suspension": np.zeros((11, 3))})
        with pytest.raises(SolverError, match="rows"):
            simulate(desk, cfg, {"suspension": np.zeros((7, 8))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected_naming_the_row(self, desk, bad):
        cfg = SolverConfig(dt=1e-3, duration=0.01)
        table = np.zeros((11, 8))
        table[4, 2] = bad
        table[7, 0] = bad
        with pytest.raises(SolverError, match="'suspension'.* row 4"):
            simulate(desk, cfg, {"suspension": table})

    def test_unknown_input_id_rejected(self):
        with pytest.raises(SolverError, match="'oscc'"):
            simulate(sdof_system(), SolverConfig(dt=0.1, duration=0.2), {"oscc": np.ones((3, 1))})

    def test_non_finite_initial_state_rejected(self):
        with pytest.raises(SolverError, match="'osc'.*non-finite"):
            simulate(sdof_system(), SolverConfig(dt=0.1, duration=1.0),
                     initial={"osc": np.array([np.nan, 0.0])})


class TestSubcycling:
    def test_ss1_identical_to_plain_run(self):
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.2, subcycles=1)
        inputs = subcycling_inputs(system, cfg)
        via_inner_loop = simulate(system, cfg, inputs)
        # at ss = 1 every substructure takes one inner step in one group, so
        # the run does not depend on which substructures are physical
        plain = dataclasses.replace(system, physical=("frame",))
        ref = PartitionedSolver(plain, cfg).run(inputs)
        assert not via_inner_loop.fine_states and not ref.fine_states
        for sid in system.substructures:
            assert np.array_equal(via_inner_loop.states[sid], ref.states[sid])
        assert np.array_equal(via_inner_loop.multipliers, ref.multipliers)

    def test_non_finite_fine_input_rejected_naming_the_row(self):
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=10)
        inputs = subcycling_inputs(system, cfg, ss=10)
        inputs["suspension"][317, 1] = np.nan
        with pytest.raises(SolverError, match="'suspension'.* row 317"):
            simulate(system, cfg, inputs)

    @pytest.mark.parametrize("ss", [1, 5])
    def test_groups_are_constraint_free_assemblies(self, ss):
        # a group of two is its members' assembly without constraints; a group
        # of one steps the member's own form, and its states are views of its record
        system = subcycling_system()
        solver = PartitionedSolver(system, SolverConfig(dt=1e-3, duration=0.01, subcycles=ss))
        traj = solver.run(subcycling_inputs(system, solver.config, ss))
        for group in solver._plan:
            if len(group.dofs) > 1:
                members = {sid: system.substructures[sid] for sid in group.dofs}
                expected = assemble_global(members, CouplingTopology(())).first_order()
                for name in ("mass", "damping", "stiffness", "rates", "slope", "smoothing"):
                    assert np.array_equal(getattr(group.form, name), getattr(expected, name)), name
                continue
            ((sid, ids),) = group.dofs.items()
            assert group.form is solver.forms[sid] and np.array_equal(ids, np.arange(group.form.n_dofs))
            assert not traj.states[sid].flags.owndata
            if group.subcycles > 1:
                assert np.shares_memory(traj.states[sid], traj.fine_states[sid])

    def test_fine_sampling_recorded(self):
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=5)
        traj = simulate(system, cfg, subcycling_inputs(system, cfg, ss=5))
        assert "suspension" in traj.fine_states
        assert traj.fine_states["suspension"].shape[0] == cfg.n_steps * 5 + 1
        assert len(traj.fine_times["suspension"]) == cfg.n_steps * 5 + 1
        assert np.allclose(np.diff(traj.fine_times["suspension"]), cfg.dt / 5)
        # coupled states close each window
        assert np.allclose(traj.fine_states["suspension"][::5], traj.states["suspension"])
        # frame is not sub-cycled
        assert "frame" not in traj.fine_states

    def test_coarse_inputs_interpolated(self):
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=5)
        fine = simulate(system, cfg, subcycling_inputs(system, cfg, ss=5))
        coarse_inputs = {"suspension": subcycling_inputs(system, cfg, ss=5)["suspension"][::5]}
        interp = simulate(system, cfg, coarse_inputs)
        # interpolated forcing approximates the exact fine samples
        err = np.abs(fine.states["suspension"] - interp.states["suspension"]).max()
        scale = np.abs(fine.states["suspension"]).max()
        assert err <= 0.05 * scale

    @staticmethod
    def two_bank_system():
        """A chain and two physical banks of :func:`two_banks`, which form one sub-cycled group."""
        topology = CouplingTopology(constraints=(
            (("chain", 0, 1), ("bank_a", 3, -1)), (("chain", 3, 1), ("bank_b", 2, -1)),
        ))
        return CoupledSystem(substructures={"chain": chain_substructure(4, k=50.0, c=0.5), **two_banks()},
                             topology=topology, physical=("bank_a", "bank_b"))

    @pytest.mark.parametrize("propagated", [True, False])
    @pytest.mark.parametrize("banks", [1, 2, "2_uncoupled"])
    def test_coarse_inputs_equal_inputs_interpolated_beforehand(self, banks, propagated):
        # a coupled-rate table of a sub-cycled group is interpolated one window
        # at a time, alone or beside a table at the inner rate, also in a
        # system without constraints, whose multiplier maps have no rows
        ss = 5
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=ss)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        fine_times = np.arange(cfg.n_steps * ss + 1) * (cfg.dt / ss)
        if banks == 1:
            system = subcycling_system()
            coarse = {"suspension": subcycling_inputs(system, cfg)["suspension"]}
            fine = {}
        else:
            system = self.two_bank_system()
            if banks == "2_uncoupled":
                system = dataclasses.replace(system, topology=CouplingTopology(()))
            coarse = {"bank_a": wheel_forces(system, "bank_a", times)}
            fine = {"bank_b": wheel_forces(system, "bank_b", fine_times), "chain": np.ones((len(times), 4))}
        interpolated = {sid: np.column_stack([np.interp(fine_times, times, col) for col in table.T])
                        for sid, table in coarse.items()}
        with mock.patch.object(dynsub.solver, "_PROPAGATOR_MAX_DOFS",
                               dynsub.solver._PROPAGATOR_MAX_DOFS if propagated else 0):
            solver = PartitionedSolver(system, cfg)
        assert all((group.propagator is not None) == propagated for group in solver._plan)
        traj = solver.run({**coarse, **fine})
        ref = solver.run({**interpolated, **fine})
        for sid in system.substructures:
            TestSimulate.assert_rows_close(traj.states[sid], ref.states[sid])
        for sid in system.physical:
            TestSimulate.assert_rows_close(traj.fine_states[sid], ref.fine_states[sid])
        if banks == "2_uncoupled":
            assert traj.multipliers.shape == ref.multipliers.shape == (cfg.n_steps + 1, 0)
        else:
            TestSimulate.assert_rows_close(traj.multipliers, ref.multipliers)

    def test_velocity_compatibility_holds_when_subcycled(self):
        system = subcycling_system()
        cfg = SolverConfig(dt=1e-3, duration=0.1, subcycles=10)
        traj = simulate(system, cfg, subcycling_inputs(system, cfg, ss=10))
        v_frame = np.column_stack([traj.velocity("frame", 2), traj.velocity("frame", 3)])
        v_susp = np.column_stack([traj.velocity("suspension", 2), traj.velocity("suspension", 3)])
        scale = max(np.abs(v_susp).max(), 1e-30)
        assert np.abs(v_frame - v_susp).max() <= 1e-10 * scale

    def test_ss10_similar_to_fine_step_run_with_some_loss(self):
        # 10 sub-cycles at dt vs a plain run at dt/10: close but not identical
        system = subcycling_system()
        duration = 0.3
        cfg_ss = SolverConfig(dt=1e-3, duration=duration, subcycles=10)
        traj_ss = simulate(system, cfg_ss, subcycling_inputs(system, cfg_ss, ss=10))
        cfg_fine = SolverConfig(dt=1e-4, duration=duration)
        traj_fine = simulate(system, cfg_fine, subcycling_inputs(system, cfg_fine))
        wheel_ss = traj_ss.fine_states["suspension"][:, 0]
        wheel_fine = traj_fine.displacement("suspension", 0)
        assert wheel_ss.shape == wheel_fine.shape
        rel = np.mean((wheel_ss - wheel_fine) ** 2) / np.mean(wheel_fine**2)
        assert rel < 0.05       # overall response similar
        assert rel > 1e-8       # but a measurable fidelity loss remains


@st.composite
def small_coupled_runs(draw):
    """A damped chain and one or two suspension banks on a random topology, with random forces.

    Each bank draws its own coefficients and motion, and every bank is
    physical, so two banks share one stacked group.  Returns the system, a
    sub-cycled config and force tables on each substructure's own grid,
    none for a substructure left undriven.
    """
    n = draw(st.integers(1, 12))
    real = st.floats
    chain = chain_substructure(n, m=draw(real(0.1, 10.0)), k=draw(real(1.0, 1e4)), c=draw(real(0.0, 5.0)))
    banks = {}
    for b in range(draw(st.integers(1, 2))):
        elements = tuple(
            SuspensionElement(mass=draw(real(0.05, 1.0)), k1=draw(real(1.0, 100.0)), c1=draw(real(0.0, 2.0)),
                              c2=draw(real(0.0, 20.0)), c3=draw(real(0.05, 2.0)))
            for _ in range(draw(st.integers(1, 4)))
        )
        banks[f"suspension{b}"] = NonlinearSubstructure(
            elements=elements, boundary_mass=draw(real(0.01, 0.5)), relative_motion=draw(st.booleans()),
        )
    # each constraint ties a distinct chain DOF to a distinct bank DOF
    bank_dofs = [(sid, dof) for sid, bank in banks.items() for dof in range(bank.n_dofs)]
    n_lam = draw(st.integers(1, min(n, len(bank_dofs))))
    chain_dofs = draw(st.permutations(range(n)))[:n_lam]
    tied = draw(st.permutations(bank_dofs))[:n_lam]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n_lam, max_size=n_lam))
    topology = CouplingTopology(constraints=tuple(
        (("chain", a, sign), (sid, dof, -sign)) for a, (sid, dof), sign in zip(chain_dofs, tied, signs)
    ))
    system = CoupledSystem(substructures={"chain": chain, **banks}, topology=topology, physical=tuple(banks))
    cfg = SolverConfig(dt=1e-3, duration=draw(st.integers(1, 20)) * 1e-3, subcycles=draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(real(0.1, 10.0))
    # each table may be left out, so that its substructure is undriven
    rows = {"chain": cfg.n_steps + 1, **{sid: cfg.n_steps * cfg.subcycles + 1 for sid in banks}}
    inputs = {
        sid: amplitude * rng.standard_normal((rows[sid], sub.n_dofs))
        for sid, sub in system.substructures.items() if draw(st.booleans())
    }
    return system, cfg, inputs


class TestPropagator:
    """Small groups step through a propagator built from ``free_step``; larger ones call it."""

    @settings(max_examples=100)
    @given(small_coupled_runs(), st.booleans())
    def test_matches_the_hand_stepped_kernel(self, run, propagated):
        # every group is small, so it steps through a propagator unless the limit is lowered to none
        system, cfg, inputs = run
        limit = dynsub.solver._PROPAGATOR_MAX_DOFS if propagated else 0
        with mock.patch.object(dynsub.solver, "_PROPAGATOR_MAX_DOFS", limit):
            solver = PartitionedSolver(system, cfg)
        assert all((group.propagator is not None) == propagated for group in solver._plan)
        traj = solver.run(inputs)
        states, fine_states, multipliers = hand_stepped(system, cfg, inputs)
        for sid in system.substructures:
            TestSimulate.assert_rows_close(traj.states[sid], states[sid])
        assert set(traj.fine_states) == set(fine_states)
        for sid, fine in fine_states.items():
            TestSimulate.assert_rows_close(traj.fine_states[sid], fine)
        TestSimulate.assert_rows_close(traj.multipliers, multipliers)

    @staticmethod
    def count_free_steps(monkeypatch, system, cfg, inputs):
        solver = PartitionedSolver(system, cfg)  # builds the propagators
        calls = []

        def counted(*args):
            calls.append(1)
            return free_step(*args)

        monkeypatch.setattr(dynsub.solver, "free_step", counted)
        solver.run(inputs)
        return len(calls)

    @staticmethod
    def reduced_desk():
        """The 200-DOF desk frame reduced to 30 modes (34 DOFs) and the suspension bank (8 DOFs)."""
        subs, topology = frame_analog()
        red = cb_reduce(subs["frame"], 30)
        return CoupledSystem(
            substructures={"frame": red.as_substructure(), "suspension": subs["suspension"]},
            topology=reduced_topology(topology, "frame", red), physical=("suspension",),
        )

    def test_reduced_desk_group_takes_no_free_step(self, monkeypatch):
        system = self.reduced_desk()
        cfg = SolverConfig(dt=1e-3, duration=0.02)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        inputs = {"suspension": wheel_forces(system, "suspension", times)}
        assert sum(sub.n_dofs for sub in system.substructures.values()) == 42
        assert self.count_free_steps(monkeypatch, system, cfg, inputs) == 0

    def test_unreduced_frame_group_takes_a_free_step_per_coupled_step(self, monkeypatch, desk):
        cfg = SolverConfig(dt=1e-3, duration=0.02)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        inputs = {"suspension": wheel_forces(desk, "suspension", times)}
        assert sum(sub.n_dofs for sub in desk.substructures.values()) == 208
        assert self.count_free_steps(monkeypatch, desk, cfg, inputs) == cfg.n_steps

    @pytest.mark.parametrize("ss", [1, 3])
    @pytest.mark.parametrize("reduced", [True, False], ids=["propagated", "free_step"])
    def test_interface_is_solved_at_construction_only(self, monkeypatch, desk, reduced, ss):
        # the multipliers are products with one map per group, built at
        # construction, so a run of 20 coupled steps solves as often as one of 10
        system = self.reduced_desk() if reduced else desk
        solves, couplings = [], []
        solve, coupling_step = InterfaceOperator.solve, dynsub.solver.coupling_step
        monkeypatch.setattr(InterfaceOperator, "solve", lambda op, rhs: solves.append(1) or solve(op, rhs))
        monkeypatch.setattr(dynsub.solver, "coupling_step", lambda *args: couplings.append(1) or coupling_step(*args))
        counts = []
        for n_steps in (10, 20):
            cfg = SolverConfig(dt=1e-3, duration=n_steps * 1e-3, subcycles=ss)
            inputs = {"suspension": wheel_forces(system, "suspension", np.arange(n_steps + 1) * cfg.dt)}
            before = len(solves)
            solver = PartitionedSolver(system, cfg)
            assert all((group.propagator is None) == (group.form.n_dofs > dynsub.solver._PROPAGATOR_MAX_DOFS)
                       for group in solver._plan)
            assert any(group.propagator is None for group in solver._plan) != reduced
            assert np.abs(solver.run(inputs).multipliers[1:]).min() > 0
            counts.append(len(solves) - before)
        assert counts[0] == counts[1] == len(solver._plan)
        assert not couplings

    def peak_beyond_the_records(self, sampling):
        """The reduced desk run at ss = 10 with the bank driven at ``sampling`` ("inner" or "coupled"):
        its tracemalloc peak beyond the arrays it returns, and the size of a whole-run frame table."""
        system = self.reduced_desk()
        cfg = SolverConfig(dt=1e-3, duration=0.5, subcycles=10)
        ss = cfg.subcycles if sampling == "inner" else 1
        times = np.arange(cfg.n_steps * ss + 1) * (cfg.dt / ss)
        inputs = {"suspension": wheel_forces(system, "suspension", times)}
        solver = PartitionedSolver(system, cfg)
        tracemalloc.start()
        try:
            traj = solver.run(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = [traj.times, traj.multipliers, *traj.fine_times.values(), *traj.states.values(),
                    *traj.fine_states.values()]
        held = {id(a if a.base is None else a.base): (a if a.base is None else a.base).nbytes for a in returned}
        frame_table = (cfg.n_steps + 1) * system.substructures["frame"].n_dofs * 8
        return peak - sum(held.values()), frame_table

    def test_peak_memory_of_a_subcycled_run_is_its_records(self):
        # the reduced frame, undriven, steps on the coupled grid and the bank,
        # driven at the inner instants, sub-cycled: the run holds its records
        # and a window of inner states per group, and no force table per DOF
        extra, frame_table = self.peak_beyond_the_records("inner")
        assert extra < frame_table, (extra, frame_table)

    def test_peak_memory_of_a_run_driven_at_the_coupled_rate_is_its_records(self):
        # coupled-rate rows are interpolated a window at a time: no inner-grid
        # table, which would be 5001 rows of the bank's 8 DOFs (320 KB)
        extra, frame_table = self.peak_beyond_the_records("coupled")
        assert extra < frame_table, (extra, frame_table)


class TestRecordedDofs:
    """``run(..., dofs=)`` records only the named DOFs, the columns a record of every DOF holds."""

    @staticmethod
    def runs(system, ss, dofs):
        cfg = SolverConfig(dt=1e-3, duration=0.05, subcycles=ss)
        times = np.arange(cfg.n_steps * ss + 1) * (cfg.dt / ss)
        solver = PartitionedSolver(system, cfg)
        inputs = {"suspension": wheel_forces(system, "suspension", times)}
        return solver, solver.run(inputs), solver.run(inputs, dofs=dofs)

    @pytest.mark.parametrize("dof_map, dofs, direct", [
        ({"s": np.arange(3)}, None, True),
        ({"s": np.arange(3)}, {"s": range(3)}, True),
        ({"s": np.arange(3)}, {"s": [1, 0, 2]}, False),
        ({"s": np.arange(3)}, {"s": [0, 1]}, False),
        ({"a": np.arange(2), "b": np.arange(2, 3)}, None, False),
    ], ids=["every_dof", "every_dof_named", "permuted", "some_dofs", "two_members"])
    def test_only_a_record_of_the_whole_state_in_order_takes_it_ungathered(self, dof_map, dofs, direct):
        records = dynsub.solver._Records(dof_map, 3, 4, dynsub.solver._recorded_dofs(
            dofs, {sid: len(ids) for sid, ids in dof_map.items()}))
        assert (records.into is records.states.get("s")) == direct
        states = np.arange(24.0).reshape(4, 6)
        records.into[:] = states
        for sid, ids in dof_map.items():
            held = records.dofs[sid]
            assert np.array_equal(records.states[sid], states[:, np.concatenate([ids[held], 3 + ids[held]])])

    @pytest.mark.parametrize("case, ss, groups", [
        ("desk", 1, [2]),  # one stacked group of the frame and the bank, free steps
        ("desk", 10, [1, 1]),  # a group of one member each, the bank sub-cycled
        ("reduced", 10, [1, 1]),  # propagated groups of one member each
    ])
    def test_columns_equal_those_of_a_whole_record(self, desk, case, ss, groups):
        system = desk if case == "desk" else TestPropagator.reduced_desk()
        n_frame = system.substructures["frame"].n_dofs
        dofs = {"frame": [n_frame - 1, 0, 7], "suspension": np.array([5, 1])}
        solver, whole, part = self.runs(system, ss, dofs)
        assert [len(group.dofs) for group in solver._plan] == groups
        assert {sid: ids.tolist() for sid, ids in part._dofs.items()} == {sid: list(ids) for sid, ids in dofs.items()}
        for sid, ids in dofs.items():
            n = system.substructures[sid].n_dofs
            columns = np.concatenate([ids, n + np.asarray(ids)])
            assert part.states[sid].shape == (whole.states[sid].shape[0], 2 * len(ids))
            assert part.states[sid].tobytes() == whole.states[sid][:, columns].tobytes(), sid
            for dof in ids:
                assert part.displacement(sid, dof).tobytes() == whole.displacement(sid, dof).tobytes()
                assert part.velocity(sid, dof).tobytes() == whole.velocity(sid, dof).tobytes()
        assert set(part.fine_states) == set(whole.fine_states) == ({"suspension"} if ss > 1 else set())
        for sid, fine in whole.fine_states.items():
            n = system.substructures[sid].n_dofs
            columns = np.concatenate([dofs[sid], n + dofs[sid]])
            assert part.fine_states[sid].tobytes() == fine[:, columns].tobytes()
            assert part.fine_times[sid].tobytes() == whole.fine_times[sid].tobytes()
        assert part.multipliers.tobytes() == whole.multipliers.tobytes()
        assert part.dof_counts == whole.dof_counts

    def test_unrecorded_dof_is_refused_naming_it(self, desk):
        _, _, part = self.runs(desk, 10, {"suspension": [0]})
        # a substructure the selection leaves out is recorded with no DOF at all
        assert part.states["frame"].shape == (51, 0) and part.fine_states["suspension"].shape == (501, 2)
        for read, sid, dof in ((part.displacement, "frame", 0), (part.velocity, "suspension", 1)):
            with pytest.raises(SolverError, match=f"substructure '{sid}' DOF {dof} is not in the trajectory"):
                read(sid, dof)
        held = r"which holds \['frame', 'suspension'\]$"
        for read in (part.displacement, part.velocity):  # an unknown id ended in a bare KeyError
            with pytest.raises(SolverError, match=f"substructure 'nosuch' is not in the trajectory, {held}"):
                read("nosuch", 0)

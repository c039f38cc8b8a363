"""Primal assembly and the reference solvers."""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from dynsub import (
    CoupledSystem,
    CouplingError,
    CouplingTopology,
    LinearSubstructure,
    ModelError,
    PartitionedSolver,
    SolverConfig,
    SolverError,
    analytic_sdof,
    assemble_global,
    finite_difference_tangent,
    simulate,
    solve_monolithic,
    solve_newmark,
)
from dynsub.generators import chain_substructure, frame_analog, suspension_substructure
from dynsub.io import _exported_dofs, save_trajectory_csv
from dynsub.models import restoring_force
from dynsub.solver import DivergenceError, _start, effective_matrix, free_step

from conftest import linear_suspension_analog, run_python, scipy_sparse_check, wheel_forces


def sdof(m=1.0, k=1.0, c=0.0):
    return LinearSubstructure(
        mass=[[m]], damping=[[c]], stiffness=[[k]],
        internal_dofs=(), boundary_dofs=(0,),
    )


def merged_pair():
    """Two DOFs of "a" both tied to DOF 0 of "b" (constraints a0-b0, b0-a1)."""
    a = LinearSubstructure(
        mass=np.diag([1.0, 2.0]), damping=np.diag([0.2, 0.0]),
        stiffness=[[3.0, -1.0], [-1.0, 2.0]],
        internal_dofs=(), boundary_dofs=(0, 1),
    )
    b = LinearSubstructure(
        mass=np.diag([4.0, 1.0]), damping=[[0.5, -0.5], [-0.5, 0.5]],
        stiffness=[[10.0, -10.0], [-10.0, 10.0]],
        internal_dofs=(1,), boundary_dofs=(0,),
    )
    topo = CouplingTopology(constraints=(
        (("a", 0, 1), ("b", 0, -1)),
        (("b", 0, 1), ("a", 1, -1)),
    ))
    return {"a": a, "b": b}, topo


class TestAssembleGlobal:
    def test_two_masses_merge(self):
        subs = {"a": sdof(m=1.5, k=2.0), "b": sdof(m=1.5, k=3.0)}
        topo = CouplingTopology(constraints=((("a", 0, 1), ("b", 0, -1)),))
        asys = assemble_global(subs, topo)
        assert asys.n_dofs == 1
        assert asys.mass[0, 0] == pytest.approx(3.0)
        assert asys.stiffness[0, 0] == pytest.approx(5.0)

    def test_global_dof_count(self):
        subs, topo = frame_analog()
        asys = assemble_global(subs, topo)
        expected = subs["frame"].n_dofs + subs["suspension"].n_dofs - topo.n_constraints
        assert asys.n_dofs == expected

    def test_empty_topology_block_diagonal(self):
        subs = {"a": sdof(k=2.0), "b": sdof(k=3.0)}
        asys = assemble_global(subs, CouplingTopology(()))
        assert asys.n_dofs == 2
        ka = asys.stiffness[asys.dof_map["a"][0], asys.dof_map["a"][0]]
        kb = asys.stiffness[asys.dof_map["b"][0], asys.dof_map["b"][0]]
        assert {ka, kb} == {2.0, 3.0}
        off = asys.dof_map["a"][0], asys.dof_map["b"][0]
        assert asys.stiffness[off] == 0.0

    def test_redundant_constraint_rejected(self):
        subs = {"a": sdof(), "b": sdof(), "c": sdof()}
        topo = CouplingTopology(constraints=(
            (("a", 0, 1), ("b", 0, -1)),
            (("b", 0, 1), ("c", 0, -1)),
            (("c", 0, 1), ("a", 0, -1)),  # closes a cycle: already merged
        ))
        with pytest.raises(CouplingError, match="redundant"):
            assemble_global(subs, topo)

    @pytest.mark.parametrize("entry, message", [
        ((("a", 0, 1), ("c", 0, -1)), "constraint 1 references unknown substructure 'c'"),
        ((("a", 0, 1), ("b", 1, -1)), "constraint 1 references DOF 1 of 'b'"),
        ((("a", -1, 1), ("b", 0, -1)), "constraint 1 references DOF -1 of 'a'"),
    ], ids=["unknown_substructure", "dof_past_end", "negative_dof"])
    def test_bad_constraint_named(self, entry, message):
        # checked before any indexing: a DOF of -1 would index the last DOF
        topo = CouplingTopology(constraints=((("a", 0, 1), ("b", 0, -1)), entry))
        with pytest.raises(CouplingError, match=re.escape(message)):
            assemble_global({"a": sdof(), "b": sdof()}, topo)

    def test_empty_system_rejected(self):
        with pytest.raises(CouplingError, match="no substructures"):
            assemble_global({}, CouplingTopology(()))
        with pytest.raises(CouplingError, match="no substructures"):
            CoupledSystem(substructures={}, topology=CouplingTopology(()))

    def test_chained_merges_share_one_global_dof(self):
        # a -> b -> c: each union hangs one root under another, two levels deep
        subs = {sid: sdof(k=k) for sid, k in zip("abcd", (1.0, 2.0, 3.0, 4.0))}
        topo = CouplingTopology(constraints=(
            (("b", 0, 1), ("a", 0, -1)),
            (("c", 0, 1), ("b", 0, -1)),
        ))
        asys = assemble_global(subs, topo)
        assert [int(asys.dof_map[sid][0]) for sid in "abcd"] == [0, 0, 0, 1]
        assert np.array_equal(asys.stiffness, np.diag([6.0, 4.0]))

    def test_merged_dofs_of_one_substructure_sum(self):
        # a0-b0 and b0-a1 put both DOFs of "a" on one global DOF, so every
        # entry of a's matrices lands on that DOF
        subs, topo = merged_pair()
        asys = assemble_global(subs, topo)
        assert asys.n_dofs == 2
        g = asys.dof_map["b"][0]
        assert list(asys.dof_map["a"]) == [g, g]
        assert asys.mass[g, g] == pytest.approx(1.0 + 2.0 + 4.0)
        assert asys.stiffness[g, g] == pytest.approx(3.0 - 1.0 - 1.0 + 2.0 + 10.0)
        assert asys.damping[g, g] == pytest.approx(0.2 + 0.5)


class TestAssembledFirstOrderForm:
    @staticmethod
    def assert_restoring_sums_substructure_forces(subs, asys, y):
        n = asys.n_dofs
        expected = np.zeros(n)
        for sid, sub in subs.items():
            ids = asys.dof_map[sid]
            r = restoring_force(sub, np.concatenate([y[ids], y[n + ids]]))
            np.add.at(expected, ids, r[len(ids):])
        r = asys.first_order().restoring(y)
        assert np.allclose(r[n:], expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        assert np.array_equal(r[:n], -y[n:])

    def test_restoring_sums_substructure_forces(self):
        subs, topo = frame_analog()
        asys = assemble_global(subs, topo)
        n = asys.n_dofs
        rng = np.random.default_rng(3)
        y = rng.normal(size=2 * n) * 1e-3
        # wheel-minus-attachment velocities far beyond c3: friction saturates
        wheels = asys.dof_map["suspension"][:4]
        y[n + wheels] = [2.0, -3.0, 4.0, -5.0]
        self.assert_restoring_sums_substructure_forces(subs, asys, y)

    def test_two_banks_each_keep_their_own_law(self):
        # the assembled coefficient rows follow the banks' element rows in order
        subs = {
            "chain": chain_substructure(4),
            "near": suspension_substructure(n_elements=2),
            "far": suspension_substructure(
                n_elements=3, relative_motion=False, coefficients=dict(c2=25.0, c3=0.12),
            ),
        }
        topo = CouplingTopology(constraints=(
            (("chain", 1, 1), ("near", 2, -1)),
            (("chain", 3, 1), ("far", 4, -1)),
        ))
        asys = assemble_global(subs, topo)
        n = asys.n_dofs
        y = 3.0 * np.random.default_rng(4).normal(size=2 * n)  # friction well into saturation
        self.assert_restoring_sums_substructure_forces(subs, asys, y)

    def test_tangent_matches_finite_differences(self):
        subs, topo = frame_analog(n=40)
        form = assemble_global(subs, topo).first_order()
        fd = finite_difference_tangent(form.restoring, form.state_size, step=1e-6)
        assert np.abs(fd - form.tangent).max() <= 1e-6 * np.abs(form.tangent).max()


class TestSolveMonolithic:
    def test_zero_input_zero_output(self):
        subs, topo = frame_analog()
        asys = assemble_global(subs, topo)
        traj = solve_monolithic(asys, SolverConfig(dt=1e-3, duration=0.01))
        for sid in subs:
            assert np.all(traj.states[sid] == 0.0)

    def test_second_order_convergence_vs_analytic(self):
        subs = {"osc": sdof()}
        asys = assemble_global(subs, CouplingTopology(()))
        errs = {}
        for dt in (1e-2, 5e-3):
            cfg = SolverConfig(dt=dt, duration=1.0)
            traj = solve_monolithic(asys, cfg, initial=np.array([1.0, 0.0]))
            u_exact, _ = analytic_sdof(1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
            errs[dt] = abs(traj.states["osc"][-1, 0] - u_exact[0])
        assert 3.4 <= errs[1e-2] / errs[5e-3] <= 4.6

    def test_initial_state_length_checked(self):
        asys = assemble_global({"osc": sdof()}, CouplingTopology(()))
        with pytest.raises(SolverError, match="length 2"):
            solve_monolithic(asys, SolverConfig(dt=1e-2, duration=0.1), initial=np.zeros(3))

    def test_non_finite_initial_state_rejected(self):
        asys = assemble_global({"osc": sdof()}, CouplingTopology(()))
        with pytest.raises(SolverError, match="non-finite"):
            solve_monolithic(asys, SolverConfig(dt=1e-2, duration=0.1), initial=np.array([0.0, np.inf]))

    def test_non_finite_input_rejected_naming_the_row(self):
        subs, topo = frame_analog(n=40, boundary_dofs=(9, 19, 29, 39))
        asys = assemble_global(subs, topo)
        table = np.zeros((11, 8))
        table[6, 3] = np.nan
        with pytest.raises(SolverError, match="'suspension'.* row 6"):
            solve_monolithic(asys, SolverConfig(dt=1e-3, duration=0.01), {"suspension": table})

    def test_unknown_input_id_rejected(self):
        asys = assemble_global({"osc": sdof()}, CouplingTopology(()))
        with pytest.raises(SolverError, match="'oscc'"):
            solve_monolithic(asys, SolverConfig(dt=0.1, duration=0.2), {"oscc": np.ones((3, 1))})

    def test_matches_partitioned_on_all_linear_system(self, desk_frame):
        susp = linear_suspension_analog()
        topo = CouplingTopology(constraints=tuple(
            (("frame", desk_frame.boundary_dofs[e], 1), ("susp", 4 + e, -1)) for e in range(4)
        ))
        subs = {"frame": desk_frame, "susp": susp}
        system = CoupledSystem(substructures=subs, topology=topo)
        # matched-step dual coupling reproduces the primal solve exactly,
        # independent of the step size
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt, duration=0.25)
            times = np.arange(cfg.n_steps + 1) * cfg.dt
            inputs = {"susp": wheel_forces(system, "susp", times)}
            part = simulate(system, cfg, inputs)
            mono = solve_monolithic(assemble_global(subs, topo), cfg, inputs)
            for e in range(4):
                bdof = desk_frame.boundary_dofs[e]
                diff = np.abs(part.displacement("frame", bdof) - mono.displacement("frame", bdof))
                scale = np.abs(mono.displacement("frame", bdof)).max()
                assert diff.max() <= 1e-9 * max(scale, 1e-12)

    def test_energy_conserved_on_undamped_system(self):
        k = np.array([[2.0, -1.0], [-1.0, 1.0]])
        sub = LinearSubstructure(
            mass=np.eye(2), damping=np.zeros((2, 2)), stiffness=k,
            internal_dofs=(0,), boundary_dofs=(1,),
        )
        asys = assemble_global({"s": sub}, CouplingTopology(()))
        cfg = SolverConfig(dt=0.05, duration=500.0)  # 10^4 steps
        y0 = np.array([0.4, -0.2, 0.0, 0.0])
        traj = solve_monolithic(asys, cfg, initial=y0)
        u, v = traj.states["s"][:, :2], traj.states["s"][:, 2:]
        energy = 0.5 * (np.einsum("ij,ij->i", v, v) + np.einsum("ij,jk,ik->i", u, k, u))
        assert np.abs(energy - energy[0]).max() <= 1e-10 * energy[0]

    def test_matches_partitioned_on_merged_dofs_of_one_substructure(self):
        subs, topo = merged_pair()
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=1e-3, duration=2.0)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        inputs = {"b": np.column_stack([np.zeros_like(times), np.sin(2 * np.pi * times)])}
        part = simulate(system, cfg, inputs)
        mono = solve_monolithic(assemble_global(subs, topo), cfg, inputs)
        for sid in subs:
            scale = np.abs(mono.states[sid]).max()
            assert np.abs(part.states[sid] - mono.states[sid]).max() <= 1e-9 * scale

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_merged_dof_driven_from_both_sides_sums_in_input_order(self, sparse):
        # every DOF of "a" and DOF 0 of "b" share one global DOF, and both drive it
        subs, topo = merged_pair()
        asys = assemble_global(subs, topo, sparse=sparse)
        cfg = SolverConfig(dt=1e-3, duration=0.5)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        rng = np.random.default_rng(5)
        inputs = {sid: np.sin(np.outer(times, rng.uniform(5.0, 50.0, 2)) + rng.uniform(0.0, 6.0, 2))
                  * rng.uniform(0.5, 3.0, 2) for sid in ("a", "b")}
        traj = solve_monolithic(asys, cfg, inputs)

        # a whole-run table summed by one unbuffered scatter, then the kernel stepped by hand
        def table(order):
            f = np.zeros((cfg.n_steps + 1, asys.n_dofs))
            for sid in order:
                np.add.at(f, (slice(None), asys.dof_map[sid]), inputs[sid])
            return f

        forces = table(("a", "b"))
        # the order shows in the bytes, so the comparison below pins it
        assert forces.tobytes() != table(("b", "a")).tobytes()
        form = asys.first_order()
        d = effective_matrix(form, cfg.dt, cfg.gamma)
        y, ydot = _start(form, None, forces[0], "the assembled system")
        states = [y]
        for step in range(1, cfg.n_steps + 1):
            y, ydot = free_step(form, d, y, ydot, forces[step], cfg.dt, cfg.gamma)
            states.append(y)
        states = np.array(states)
        for sid, ids in asys.dof_map.items():
            expected = states[:, np.concatenate([ids, asys.n_dofs + ids])]
            assert traj.states[sid].tobytes() == expected.tobytes(), sid

    def test_matches_partitioned_on_nonlinear_system(self):
        # the assembled form scatters the same suspension force law
        frame = linear_suspension_analog(n_elements=2, wheel_mass=1.0, attach_mass=0.5,
                                         k1=200.0, c_visc=1.0)
        susp = suspension_substructure(n_elements=2)
        topo = CouplingTopology(constraints=(
            (("frame", 2, 1), ("susp", 2, -1)),
            (("frame", 3, 1), ("susp", 3, -1)),
        ))
        subs = {"frame": frame, "susp": susp}
        system = CoupledSystem(substructures=subs, topology=topo, physical=("susp",))
        cfg = SolverConfig(dt=1e-3, duration=0.3)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        inputs = {"susp": wheel_forces(system, "susp", times)}
        part = simulate(system, cfg, inputs)
        mono = solve_monolithic(assemble_global(subs, topo), cfg, inputs)
        for dof in (2, 3):
            diff = np.abs(part.displacement("susp", dof) - mono.displacement("susp", dof)).max()
            scale = np.abs(mono.displacement("susp", dof)).max()
            assert diff <= 1e-9 * max(scale, 1e-12)


def desk_1000():
    """The experiment's default system: the 1000-DOF frame and four suspensions."""
    return frame_analog(n=1000, k=2.5e5)


class TestSparseReference:
    """``assemble_global(..., sparse=True)``: CSR matrices and one SuperLU factorization of S."""

    @pytest.mark.parametrize("build", [desk_1000, merged_pair], ids=["desk_1000", "merged_dofs"])
    def test_assembly_equals_dense_entry_for_entry(self, build):
        subs, topo = build()
        dense, sparse = assemble_global(subs, topo), assemble_global(subs, topo, sparse=True)
        assert sparse.mass.format == "csr"
        for name in ("mass", "damping", "stiffness"):
            assert np.array_equal(getattr(sparse, name).toarray(), getattr(dense, name)), name
        for sid in subs:
            assert np.array_equal(sparse.dof_map[sid], dense.dof_map[sid])
        for name in ("rates", "slope", "smoothing"):
            assert np.array_equal(getattr(sparse.first_order(), name), getattr(dense.first_order(), name))

    @staticmethod
    def desk_run(subs, topo, duration, sparse):
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=1e-3, duration=duration)
        inputs = {"suspension": wheel_forces(system, "suspension", np.arange(cfg.n_steps + 1) * cfg.dt)}
        return solve_monolithic(assemble_global(subs, topo, sparse=sparse), cfg, inputs)

    @pytest.mark.parametrize("build, duration", [(desk_1000, 0.2), (frame_analog, 0.5)],
                             ids=["desk_1000", "readme_208"])
    def test_solve_agrees_with_dense(self, build, duration):
        subs, topo = build()
        dense = self.desk_run(subs, topo, duration, sparse=False)
        sparse = self.desk_run(subs, topo, duration, sparse=True)
        for sid in subs:
            scale = np.abs(dense.states[sid]).max()
            assert scale > 0
            assert np.abs(sparse.states[sid] - dense.states[sid]).max() <= 1e-12 * scale, sid

    def test_nonsymmetric_damping_agrees_with_dense(self):
        # a skew (gyroscopic) coupling of neighbouring frame DOFs, as large as the
        # largest damping entry, makes S nonsymmetric: SuperLU's threshold pivoting
        # under the symmetric order still gives the dense LU run to round-off
        subs, topo = desk_1000()
        frame = subs["frame"]
        i = np.arange(frame.n_dofs - 1)
        g = np.abs(frame.damping).max()
        skew = scipy.sparse.csr_array((np.repeat([g, -g], len(i)), (np.r_[i, i + 1], np.r_[i + 1, i])),
                                      shape=frame.mass.shape)
        gyroscopic = LinearSubstructure(mass=frame.mass, damping=frame.damping + skew, stiffness=frame.stiffness,
                                        internal_dofs=frame.internal_dofs, boundary_dofs=frame.boundary_dofs)
        subs = {**subs, "frame": gyroscopic}
        assert abs(gyroscopic.damping - gyroscopic.damping.T).max() == 2 * g
        dense = self.desk_run(subs, topo, 0.2, sparse=False)
        sparse = self.desk_run(subs, topo, 0.2, sparse=True)
        symmetric = self.desk_run(desk_1000()[0], topo, 0.2, sparse=True)
        for sid in subs:
            scale = np.abs(dense.states[sid]).max()
            assert np.abs(sparse.states[sid] - dense.states[sid]).max() <= 1e-12 * scale, sid
            assert np.abs(sparse.states[sid] - symmetric.states[sid]).max() > 1e-6 * scale, sid

    def test_unreduced_csr_frame_partitioned_agrees(self):
        # the CSR frame and the suspension form one step group at ss = 1,
        # stepped on a CSR S (SuperLU); the partitioned solve then equals
        # the sparse monolithic one to round-off
        subs, topo = desk_1000()
        system = CoupledSystem(substructures=subs, topology=topo, physical=("suspension",))
        cfg = SolverConfig(dt=1e-3, duration=0.05)
        inputs = {"suspension": wheel_forces(system, "suspension", np.arange(cfg.n_steps + 1) * cfg.dt)}
        (group,) = PartitionedSolver(system, cfg)._plan
        assert group.form.mass.format == "csr" and group.effective.matrix.format == "csr"
        part = simulate(system, cfg, inputs)
        mono = solve_monolithic(assemble_global(subs, topo, sparse=True), cfg, inputs)
        for sid in subs:
            scale = np.abs(mono.states[sid]).max()
            assert scale > 0
            assert np.abs(part.states[sid] - mono.states[sid]).max() <= 1e-12 * scale, sid

    @pytest.mark.parametrize("solver", ["monolithic", "partitioned"])
    def test_peak_memory_is_the_substructure_records(self, solver):
        # the default desk system, unreduced: each substructure's states are
        # recorded as the run goes, so no whole-run record of the stepped state,
        # no zero force table per undriven substructure and no copy of either is held
        subs, topo = desk_1000()
        asys = assemble_global(subs, topo, sparse=True)
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=1e-3, duration=1.0)
        inputs = {"suspension": wheel_forces(system, "suspension", np.arange(cfg.n_steps + 1) * cfg.dt)}
        run = partial(solve_monolithic, asys, cfg) if solver == "monolithic" else PartitionedSolver(system, cfg).run
        tracemalloc.start()
        try:
            traj = run(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = sum(record.nbytes for record in traj.states.values())
        global_record = (cfg.n_steps + 1) * 2 * asys.n_dofs * 8
        assert peak - states < global_record, (peak, states)

    def test_reruns_are_byte_identical(self):
        subs, topo = frame_analog()
        first = self.desk_run(subs, topo, 0.1, sparse=True)
        second = self.desk_run(subs, topo, 0.1, sparse=True)
        for sid in subs:
            assert first.states[sid].tobytes() == second.states[sid].tobytes()

    @pytest.mark.parametrize("k", [-100.0, np.nextafter(-100.0, -200.0)], ids=["exact", "round_off"])
    def test_singular_effective_matrix_names_dt(self, k):
        # S = m + (gamma dt)^2 k = 1 - 0.1^2 * 100 = 0: SuperLU finds it exactly
        # singular; one ulp more leaves a pivot of 2e-16, below the 1e-14 rule
        for sparse in (False, True):
            asys = assemble_global({"osc": sdof(k=k)}, CouplingTopology(()), sparse=sparse)
            with pytest.raises(SolverError, match="dt=0.2"):
                solve_monolithic(asys, SolverConfig(dt=0.2, duration=0.4))

    @pytest.mark.parametrize("path", ["partitioned", "dense_monolithic", "sparse_monolithic"])
    def test_singular_mass_named(self, path):
        # symmetric with a positive diagonal, so the model is accepted; S = M + (gamma dt)^2 K is
        # regular, but the starting rate solves with M itself
        sub = LinearSubstructure(mass=[[1.0, 1.0], [1.0, 1.0]], damping=np.zeros((2, 2)), stiffness=np.eye(2),
                                 internal_dofs=(0,), boundary_dofs=(1,))
        subs, topo, cfg = {"osc": sub}, CouplingTopology(()), SolverConfig(dt=0.1, duration=0.2)
        what = "substructure 'osc'" if path == "partitioned" else "the assembled system"
        with pytest.raises(SolverError, match=f"mass matrix of {what} is singular"):
            if path == "partitioned":
                simulate(CoupledSystem(substructures=subs, topology=topo), cfg)
            else:
                solve_monolithic(assemble_global(subs, topo, sparse=path == "sparse_monolithic"), cfg)

    def test_newmark_needs_the_dense_assembly(self):
        asys = assemble_global({"osc": sdof()}, CouplingTopology(()), sparse=True)
        with pytest.raises(ModelError, match="dense"):
            solve_newmark(asys, SolverConfig(dt=0.1, duration=0.2))

    def test_cli_import_leaves_scipy_sparse_out(self):
        proc = run_python(scipy_sparse_check("import dynsub.cli"))
        assert proc.returncode == 0, proc.stderr


class TestRecordedDofs:
    """The route of ``run_experiment`` and the CLI: a reference that records only the DOFs a CSV holds."""

    @staticmethod
    def desk(n):
        subs, topo = frame_analog(n=n)
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=1e-3, duration=0.05)
        inputs = {"suspension": wheel_forces(system, "suspension", np.arange(cfg.n_steps + 1) * cfg.dt)}
        return system, assemble_global(subs, topo, sparse=n >= 400), cfg, inputs

    @pytest.mark.parametrize("n", [200, 1000], ids=["dense_200", "csr_1000"])
    def test_csv_equals_that_of_the_whole_record(self, tmp_path, n):
        system, asys, cfg, inputs = self.desk(n)
        assert isinstance(asys.mass, np.ndarray) == (n < 400)
        whole = solve_monolithic(asys, cfg, inputs)
        part = solve_monolithic(asys, cfg, inputs, dofs=_exported_dofs(system))
        # the frame's four boundary DOFs and the suspension's eight DOFs, u and v
        assert {sid: record.shape for sid, record in part.states.items()} == {
            "frame": (cfg.n_steps + 1, 8), "suspension": (cfg.n_steps + 1, 16),
        }
        assert part.dof_counts == whole.dof_counts
        save_trajectory_csv(tmp_path / "whole.csv", whole, system)
        save_trajectory_csv(tmp_path / "part.csv", part, system)
        assert (tmp_path / "part.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_unrecorded_dof_is_refused_naming_it(self):
        system, asys, cfg, inputs = self.desk(200)
        part = solve_monolithic(asys, cfg, inputs, dofs=_exported_dofs(system))
        internal = system.substructures["frame"].internal_dofs[0]
        for read in (part.displacement, part.velocity):
            with pytest.raises(SolverError, match=f"substructure 'frame' DOF {internal} is not in the trajectory"):
                read("frame", internal)
        # a substructure the selection leaves out is recorded with no DOF at all
        bare = solve_monolithic(asys, cfg, inputs, dofs={"suspension": [0]})
        assert bare.states["frame"].shape == (cfg.n_steps + 1, 0)
        boundary = system.substructures["frame"].boundary_dofs[0]
        with pytest.raises(SolverError, match=f"substructure 'frame' DOF {boundary} is not in the trajectory"):
            bare.displacement("frame", boundary)
        assert bare.velocity("suspension", 0).tobytes() == part.velocity("suspension", 0).tobytes()

    @pytest.mark.parametrize("dof", [-1, 200, 2.0, True, "2", 10**30, [True, 2], np.array([True]), [2.0], ["2"],
                                     [10**30]],
                             ids=["negative", "past_end", "float", "bool", "string", "huge", "list_with_a_bool",
                                  "bool_array", "float_list", "string_list", "huge_list"])
    def test_dof_outside_a_whole_record_is_refused(self, dof):
        # -1 used to read the last velocity column as a displacement, and True
        # the whole record as a boolean index (or DOF 1 as a velocity)
        _, asys, cfg, inputs = self.desk(200)
        whole = solve_monolithic(asys, cfg, inputs)
        for read in (whole.displacement, whole.velocity):
            with pytest.raises(SolverError, match=re.escape(f"substructure 'frame' DOF {dof!r} is not in the trajectory")):
                read("frame", dof)

    @pytest.mark.parametrize("solver", ["monolithic", "partitioned"])
    def test_peak_memory_is_far_below_a_record_of_every_dof(self, solver):
        # the unreduced 1000-DOF desk system over 0.5 s: a record of every frame
        # DOF would be 8 MB, the columns the CSV holds are 0.1 MB; the reference
        # also builds its first-order form and factors inside the call (1.5 MB peak)
        subs, topo = desk_1000()
        system = CoupledSystem(substructures=subs, topology=topo)
        cfg = SolverConfig(dt=1e-3, duration=0.5)
        inputs = {"suspension": wheel_forces(system, "suspension", np.arange(cfg.n_steps + 1) * cfg.dt)}
        run = (partial(solve_monolithic, assemble_global(subs, topo, sparse=True), cfg) if solver == "monolithic"
               else PartitionedSolver(system, cfg).run)
        tracemalloc.start()
        try:
            traj = run(inputs, dofs=_exported_dofs(system))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {sid: record.shape[1] for sid, record in traj.states.items()} == {"frame": 8, "suspension": 16}
        frame_record = (cfg.n_steps + 1) * 2 * subs["frame"].n_dofs * 8
        assert peak < frame_record / 4, (peak, frame_record)

    @pytest.mark.parametrize("solver", ["monolithic", "partitioned"])
    @pytest.mark.parametrize("dofs, named", [
        # -1 recorded DOF 199 and mapped it as -1, 500 raised a bare IndexError,
        # an unknown id was ignored, 1.5 and True recorded DOF 1, and a repeated
        # DOF recorded two columns
        ({"frame": [-1]}, "'frame'.* -1 "),
        ({"frame": [500]}, "'frame'.* 500 "),
        ({"wheel": [0]}, "'wheel'"),
        ({"frame": [1.5]}, "'frame'.* 1.5 "),
        ({"frame": [True]}, "'frame'.* True "),
        ({"frame": [3, 3]}, "'frame' DOF 3 is named twice"),
        ({"frame": 3}, "'frame'.* got 3$"),
        ([3], re.escape("got [3]")),
        # np.asarray reads [True, 2] as [1, 2] and [10**30] as an object array
        ({"frame": [True, 2]}, "'frame'.* True "),
        ({"frame": np.array([True])}, "'frame'.* True "),
        ({"frame": [2.0]}, "'frame'.* 2.0 "),
        ({"frame": ["2"]}, "'frame'.* '2' "),
        ({"frame": [10**30]}, f"'frame'.* {10**30} "),
    ], ids=["negative", "past_end", "unknown_id", "float", "bool", "repeated", "not_a_list", "not_a_mapping",
            "bool_beside_an_int", "bool_array", "float_list", "string_list", "huge"])
    def test_bad_dofs_are_refused_naming_them(self, solver, dofs, named):
        system, asys, cfg, inputs = self.desk(200)
        with pytest.raises(SolverError, match=named):
            if solver == "monolithic":
                solve_monolithic(asys, cfg, inputs, dofs=dofs)
            else:
                simulate(system, cfg, inputs, dofs=dofs)

    def test_divergence_of_an_unrecorded_dof_is_caught(self):
        # a fast internal frame DOF breaks the limit while every recorded DOF stays far below it
        system, asys, _, inputs = self.desk(200)
        dofs = _exported_dofs(system)
        internal = system.substructures["frame"].internal_dofs[50]
        initial = np.zeros(2 * asys.n_dofs)
        initial[asys.n_dofs + asys.dof_map["frame"][internal]] = 1e3
        one_step = solve_monolithic(asys, SolverConfig(dt=1e-3, duration=1e-3), inputs={}, initial=initial, dofs=dofs)
        assert max(np.abs(record).max() for record in one_step.states.values()) < 10.0
        with pytest.raises(DivergenceError, match=f"'frame' diverged at step 1 in DOF {internal} ") as err:
            solve_monolithic(asys, SolverConfig(dt=1e-3, duration=0.05, divergence_limit=100.0), inputs, initial,
                             dofs=dofs)
        assert (err.value.sub_id, err.value.dof) == ("frame", internal)


class TestNewmark:
    def test_linear_only(self):
        subs, topo = frame_analog()
        asys = assemble_global(subs, topo)
        with pytest.raises(ModelError, match="linear"):
            solve_newmark(asys, SolverConfig(dt=1e-3, duration=0.01))

    def test_equals_lu_solve_reference_bit_for_bit(self):
        chain = chain_substructure(n=4, m=1.5, k=30.0, c=0.2, boundary_dofs=(3,))
        asys = assemble_global({"chain": chain}, CouplingTopology(()))
        cfg = SolverConfig(dt=1e-2, duration=0.5)
        forces = np.column_stack([np.zeros(cfg.n_steps + 1)] * 3 + [np.sin(np.arange(cfg.n_steps + 1) * 0.3)])
        traj = solve_newmark(asys, cfg, {"chain": forces})

        # the same average-acceleration recursion through scipy's lu_factor/lu_solve
        dt, m, c, k = cfg.dt, asys.mass, asys.damping, asys.stiffness
        beta, gamma = 0.25, 0.5
        a0, a1, a2 = 1.0 / (beta * dt**2), gamma / (beta * dt), 1.0 / (beta * dt)
        a3, a4, a5 = 1.0 / (2 * beta) - 1.0, gamma / beta - 1.0, dt / 2 * (gamma / beta - 2.0)
        a6, a7 = dt * (1.0 - gamma), gamma * dt
        lu = scipy.linalg.lu_factor(k + a0 * m + a1 * c)
        u, v = np.zeros(4), np.zeros(4)
        acc = np.linalg.solve(m, forces[0])
        for step in range(1, cfg.n_steps + 1):
            f_eff = forces[step] + m @ (a0 * u + a2 * v + a3 * acc) + c @ (a1 * u + a4 * v + a5 * acc)
            u_new = scipy.linalg.lu_solve(lu, f_eff)
            acc_new = a0 * (u_new - u) - a2 * v - a3 * acc
            v = v + a6 * acc + a7 * acc_new
            u, acc = u_new, acc_new
            assert np.array_equal(traj.states["chain"][step], np.concatenate([u, v]))

    def test_average_acceleration_equals_trapezoidal_on_linear(self, desk_frame):
        susp = linear_suspension_analog()
        topo = CouplingTopology(constraints=tuple(
            (("frame", desk_frame.boundary_dofs[e], 1), ("susp", 4 + e, -1)) for e in range(4)
        ))
        subs = {"frame": desk_frame, "susp": susp}
        asys = assemble_global(subs, topo)
        cfg = SolverConfig(dt=1e-3, duration=0.1)
        times = np.arange(cfg.n_steps + 1) * cfg.dt
        system = CoupledSystem(substructures=subs, topology=topo)
        inputs = {"susp": wheel_forces(system, "susp", times)}
        trap = solve_monolithic(asys, cfg, inputs)
        newm = solve_newmark(asys, cfg, inputs)
        for e in range(4):
            bdof = desk_frame.boundary_dofs[e]
            a = trap.displacement("frame", bdof)
            b = newm.displacement("frame", bdof)
            assert np.abs(a - b).max() <= 1e-8 * max(np.abs(a).max(), 1e-12)


class TestAnalyticSdof:
    def test_half_period_of_cosine(self):
        u, v = analytic_sdof(1.0, 0.0, 1.0, 1.0, 0.0, np.pi)
        assert u[0] == pytest.approx(-1.0, rel=1e-12)
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    def test_initial_conditions_returned_at_t0(self):
        for c in (0.0, 0.5, 2.0, 5.0):
            u, v = analytic_sdof(1.0, c, 1.0, 0.7, -1.3, 0.0)
            assert u[0] == pytest.approx(0.7)
            assert v[0] == pytest.approx(-1.3)

    def test_branch_continuity_near_critical_damping(self):
        m, k = 1.3, 4.7
        c_crit = 2 * np.sqrt(m * k)
        t = np.linspace(0.0, 3.0, 7)
        u_lo, v_lo = analytic_sdof(m, c_crit * (1 - 1e-9), k, 1.0, 0.5, t)
        u_hi, v_hi = analytic_sdof(m, c_crit * (1 + 1e-9), k, 1.0, 0.5, t)
        u_cr, v_cr = analytic_sdof(m, c_crit, k, 1.0, 0.5, t)
        assert np.abs(u_lo - u_cr).max() <= 1e-8
        assert np.abs(u_hi - u_cr).max() <= 1e-8
        assert np.abs(v_lo - v_cr).max() <= 1e-8
        assert np.abs(v_hi - v_cr).max() <= 1e-8

    def test_velocity_consistent_with_displacement(self):
        # central difference of u reproduces v for all damping branches
        t = np.linspace(0.0, 2.0, 20001)
        for c in (0.0, 0.3, 2.0, 6.0):
            u, v = analytic_sdof(1.0, c, 1.0, 1.0, -0.2, t)
            v_fd = np.gradient(u, t)
            assert np.abs(v_fd[1:-1] - v[1:-1]).max() <= 1e-5

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            analytic_sdof(0.0, 0.0, 1.0, 1.0, 0.0, 1.0)

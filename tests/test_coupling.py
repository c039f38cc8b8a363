"""Interface topology, locator matrices, condensed operator."""

import re

import numpy as np
import pytest
import scipy.linalg

from dynsub import (
    CoupledSystem,
    CouplingError,
    CouplingTopology,
    PartitionedSolver,
    SolverConfig,
    assemble_first_order,
    simulate,
)
from dynsub.coupling import locator_matrix, steklov_poincare
from dynsub.solver import effective_matrix
from dynsub.models import LinearSubstructure


def sdof(m=1.0, k=1.0, c=0.0):
    return LinearSubstructure(
        mass=[[m]], damping=[[c]], stiffness=[[k]],
        internal_dofs=(), boundary_dofs=(0,),
    )


def pair_topology(sign_a=1, sign_b=-1):
    return CouplingTopology(constraints=((("a", 0, sign_a), ("b", 0, sign_b)),))


def locators(topology, sub_ids, n_dofs=1):
    return [locator_matrix(topology, sid, n_dofs) for sid in sub_ids]


class TestTopologyValidation:
    def test_two_entries_required(self):
        with pytest.raises(CouplingError, match="exactly two"):
            CouplingTopology(constraints=(((("a", 0, 1)),),))

    def test_signs_must_be_opposite(self):
        with pytest.raises(CouplingError, match="opposite"):
            CouplingTopology(constraints=((("a", 0, 1), ("b", 0, 1)),))

    def test_signs_must_be_unit(self):
        with pytest.raises(CouplingError, match=r"\+1 or -1"):
            CouplingTopology(constraints=((("a", 0, 2), ("b", 0, -1)),))

    @pytest.mark.parametrize("side, message", [
        (("a", 5.9, 1), "constraint 1: field 'dof' must be an integer, got 5.9"),
        (("a", "5", 1), "constraint 1: field 'dof' must be an integer, got '5'"),
        (("a", 5, True), "constraint 1: field 'sign' must be an integer, got True"),
        (("a", 5, -1.0), "constraint 1: field 'sign' must be an integer, got -1.0"),
        (("a", 5), "constraint 1 must be exactly two (substructure, dof, sign) triples"),
    ], ids=["float_dof", "string_dof", "boolean_sign", "float_sign", "two_entry_side"])
    def test_malformed_side_named_not_truncated(self, side, message):
        # a float DOF is refused, not truncated to 5; the first constraint is well formed
        with pytest.raises(CouplingError, match=re.escape(message)):
            CouplingTopology(constraints=((("a", 0, 1), ("b", 0, -1)), (side, ("b", 1, 1))))

    def test_self_coupling_rejected(self):
        with pytest.raises(CouplingError, match="itself"):
            CouplingTopology(constraints=((("a", 0, 1), ("a", 1, -1)),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(CouplingError, match="duplicates"):
            CouplingTopology(constraints=(
                (("a", 0, 1), ("b", 0, -1)),
                (("b", 0, 1), ("a", 0, -1)),
            ))

    def test_unknown_substructure_caught_by_system(self):
        with pytest.raises(CouplingError, match="unknown"):
            CoupledSystem(substructures={"a": sdof()}, topology=pair_topology())

    def test_out_of_range_dof_caught_by_system(self):
        topo = CouplingTopology(constraints=((("a", 5, 1), ("b", 0, -1)),))
        with pytest.raises(CouplingError, match="DOF 5"):
            CoupledSystem(substructures={"a": sdof(), "b": sdof()}, topology=topo)


class TestBooleanMatrices:
    def test_locator_injects_momentum_row(self):
        topo = pair_topology()
        # one row per DOF: the momentum rows only, displacements are not coupled
        l_a = locator_matrix(topo, "a", 1)
        assert l_a.shape == (1, 1)
        assert np.array_equal(l_a, [[1.0]])
        l_b = locator_matrix(topo, "b", 1)
        assert np.array_equal(l_b, [[-1.0]])

    def test_entries_boolean_up_to_sign(self):
        topo = CouplingTopology(constraints=(
            (("a", 2, 1), ("b", 0, -1)),
            (("a", 3, -1), ("b", 1, 1)),
        ))
        for sid, n in (("a", 4), ("b", 2)):
            l = locator_matrix(topo, sid, n)
            assert set(np.unique(l)) <= {-1.0, 0.0, 1.0}
            # one entry per constraint per substructure
            assert np.count_nonzero(l) == 2

    def test_action_reaction_structure(self):
        # the lambda-induced generalized forces on the two sides sum to zero
        topo = pair_topology()
        lam = np.array([3.7])
        f_a = locator_matrix(topo, "a", 1) @ lam
        f_b = locator_matrix(topo, "b", 1) @ lam
        assert np.allclose(f_a + f_b, 0.0)
        assert np.abs(f_a[0]) == pytest.approx(3.7)


class TestSteklovPoincare:
    def test_two_identical_sdof_hand_value(self):
        sub = sdof(m=1.0, k=1.0)
        form = assemble_first_order(sub)
        d = effective_matrix(form, dt=0.1)
        op = steklov_poincare([(l_v, d.solve(l_v)) for l_v in locators(pair_topology(), "ab")])
        # G D^-1 L of the first-order D = A + dt/2*R0 picks its
        # velocity-row, velocity-column entry; two sides add
        d_inv = np.linalg.inv(form.A + 0.05 * form.tangent)
        expected = 2.0 * d_inv[1, 1]
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_solve_equals_lu_solve_and_leaves_rhs_alone(self, desk, shape):
        op = PartitionedSolver(desk, SolverConfig(dt=1e-3, duration=0.01)).interface
        rhs = np.random.default_rng(2).standard_normal(shape)
        before = rhs.copy()
        reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(op.matrix), rhs)
        assert np.array_equal(op.solve(rhs), reference)
        assert np.array_equal(rhs, before)
        with pytest.raises(ValueError):
            op.solve(np.ones(5))

    def test_singular_operator_rejected(self):
        # a closed loop a-b-c-a: the three constraint rows sum to zero
        d = effective_matrix(assemble_first_order(sdof()), 0.1)
        loop = CouplingTopology(constraints=(
            (("a", 0, 1), ("b", 0, -1)),
            (("b", 0, 1), ("c", 0, -1)),
            (("c", 0, 1), ("a", 0, -1)),
        ))
        with pytest.raises(CouplingError, match="singular"):
            steklov_poincare([(l_v, d.solve(l_v)) for l_v in locators(loop, "abc")])

    def test_no_constraints_rejected(self):
        with pytest.raises(CouplingError, match="no interface constraints"):
            steklov_poincare([])
        # a substructure without interface constraints contributes a 0 x 0 block
        l_v = locator_matrix(CouplingTopology(()), "a", 1)
        with pytest.raises(CouplingError, match="no interface constraints"):
            steklov_poincare([(l_v, l_v)])

    def test_sign_flip_leaves_coupled_trajectory_unchanged(self):
        # flipping both signs of a constraint flips the multiplier sign only
        subs = {"a": sdof(k=2.0, c=0.1), "b": sdof(m=0.5, k=1.0, c=0.05)}
        cfg = SolverConfig(dt=1e-2, duration=0.5)
        force = {"a": np.column_stack([np.sin(np.arange(cfg.n_steps + 1) * 0.2)])}
        trajs = []
        for sa, sb in ((1, -1), (-1, 1)):
            system = CoupledSystem(substructures=dict(subs), topology=pair_topology(sa, sb))
            trajs.append(simulate(system, cfg, force))
        for sid in subs:
            assert np.allclose(trajs[0].states[sid], trajs[1].states[sid], atol=1e-14)
        assert np.allclose(trajs[0].multipliers, -trajs[1].multipliers, atol=1e-14)


def test_package_exports_no_solver_internals():
    # the step's building blocks stay importable from their modules only
    import dynsub

    for name in ("coupling_step", "locator_matrix", "steklov_poincare", "InterfaceOperator", "EffectiveMatrix",
                 "effective_matrix", "free_step", "restoring_force"):
        assert name not in dynsub.__all__ and not hasattr(dynsub, name), name
    assert all(hasattr(dynsub, name) for name in dynsub.__all__)

"""Model construction, restoring-force evaluation, and tangent linearization."""

import numpy as np
import pytest

from dynsub import (
    LinearSubstructure,
    ModelError,
    NonlinearSubstructure,
    SuspensionElement,
    assemble_first_order,
    finite_difference_tangent,
    restoring_force,
    tangent_at_zero,
)

from conftest import FORCE_LAW_KINDS, first_order_forms, two_bank_forms

# identified suspension coefficients used in the hand-checked examples below
COEFF = dict(mass=0.160, k1=35.0, c1=0.65, c2=10.0, c3=0.55)


def sdof(m=1.0, k=1.0, c=0.0):
    return LinearSubstructure(
        mass=[[m]], damping=[[c]], stiffness=[[k]],
        internal_dofs=(), boundary_dofs=(0,),
    )


def two_mass_chain(k=1.0, m=1.0):
    # grounded-free chain: K = [[2k, -k], [-k, k]]
    return LinearSubstructure(
        mass=np.eye(2) * m,
        damping=np.zeros((2, 2)),
        stiffness=[[2 * k, -k], [-k, k]],
        internal_dofs=(0,), boundary_dofs=(1,),
    )


def suspension(n=1, **overrides):
    coeff = {**COEFF, **overrides}
    elements = tuple(SuspensionElement(base_excitation_channel=i, **coeff) for i in range(n))
    return NonlinearSubstructure(elements=elements)


class TestValidation:
    def test_asymmetric_mass_rejected(self):
        with pytest.raises(ModelError, match="mass matrix is not symmetric"):
            LinearSubstructure(
                mass=[[1.0, 0.5], [0.0, 1.0]], damping=np.zeros((2, 2)),
                stiffness=np.eye(2), internal_dofs=(0,), boundary_dofs=(1,),
            )

    def test_asymmetric_stiffness_rejected(self):
        with pytest.raises(ModelError, match="stiffness matrix is not symmetric"):
            LinearSubstructure(
                mass=np.eye(2), damping=np.zeros((2, 2)),
                stiffness=[[1.0, 0.3], [0.0, 1.0]], internal_dofs=(0,), boundary_dofs=(1,),
            )

    def test_nonpositive_mass_diagonal_rejected(self):
        with pytest.raises(ModelError, match="positive diagonal"):
            LinearSubstructure(
                mass=np.diag([1.0, 0.0]), damping=np.zeros((2, 2)),
                stiffness=np.eye(2), internal_dofs=(0,), boundary_dofs=(1,),
            )

    def test_partition_must_cover_all_dofs(self):
        with pytest.raises(ModelError, match="disjointly cover"):
            LinearSubstructure(
                mass=np.eye(3), damping=np.zeros((3, 3)), stiffness=np.eye(3),
                internal_dofs=(0,), boundary_dofs=(2,),
            )
        with pytest.raises(ModelError, match="disjointly cover"):
            LinearSubstructure(
                mass=np.eye(2), damping=np.zeros((2, 2)), stiffness=np.eye(2),
                internal_dofs=(0, 1), boundary_dofs=(1,),
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError, match="matrix sizes disagree"):
            LinearSubstructure(
                mass=np.eye(2), damping=np.zeros((3, 3)), stiffness=np.eye(2),
                internal_dofs=(0,), boundary_dofs=(1,),
            )

    def test_non_square_rejected(self):
        with pytest.raises(ModelError, match="square"):
            LinearSubstructure(
                mass=np.ones((2, 3)), damping=np.zeros((2, 2)), stiffness=np.eye(2),
                internal_dofs=(0,), boundary_dofs=(1,),
            )

    def test_suspension_c3_must_be_positive(self):
        with pytest.raises(ModelError, match="c3"):
            SuspensionElement(mass=0.16, k1=35.0, c1=0.65, c2=10.0, c3=0.0)

    def test_suspension_mass_must_be_positive(self):
        with pytest.raises(ModelError, match="mass"):
            SuspensionElement(mass=-1.0, k1=35.0, c1=0.65, c2=10.0, c3=0.55)

    @pytest.mark.parametrize("field", ["mass", "damping", "stiffness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_entry_rejected_naming_the_matrix(self, field, bad):
        matrices = {"mass": np.eye(2), "damping": np.zeros((2, 2)), "stiffness": np.eye(2)}
        matrices[field][1, 0] = bad
        with pytest.raises(ModelError, match=f"'{field}'.* row 1, column 0"):
            LinearSubstructure(**matrices, internal_dofs=(0,), boundary_dofs=(1,))

    @pytest.mark.parametrize("field", ["mass", "k1", "c1", "c2", "c3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_suspension_coefficient_rejected(self, field, bad):
        with pytest.raises(ModelError, match=f"'{field}'"):
            SuspensionElement(**{**COEFF, field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_mass_rejected(self, bad):
        element = SuspensionElement(**COEFF)
        with pytest.raises(ModelError, match="'boundary_mass'"):
            NonlinearSubstructure(elements=(element,), boundary_mass=bad)

    def test_matrices_locked_after_construction(self):
        sub = two_mass_chain()
        with pytest.raises(ValueError):
            sub.stiffness[0, 0] = 99.0


class TestRestoringForce:
    def test_unit_stiffness_zero_velocity(self):
        # 1-DOF linear (m=1, k=1, c=0): R([u=1, v=0]) = [0, 1]
        assert np.allclose(restoring_force(sdof(), [1.0, 0.0]), [0.0, 1.0])

    def test_zero_state_gives_zero(self):
        for sub in (sdof(), two_mass_chain(), suspension(2)):
            y = np.zeros(2 * sub.n_dofs)
            assert np.array_equal(restoring_force(sub, y), y)

    def test_two_mass_chain_elastic_rows(self):
        # u = [1, 0]: K @ u = [2, -1] for the grounded-free chain
        r = restoring_force(two_mass_chain(), [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(r, [0.0, 0.0, 2.0, -1.0])

    def test_suspension_hand_values(self):
        # relative displacement 0.1, relative velocity 1.0:
        # f_r = 3.5, f_d = 0.65 + 10/1.55 = 7.101612903225806
        sub = suspension(1)
        y = np.array([0.1, 0.0, 1.0, 0.0])  # wheel u, attach u, wheel v, attach v
        r = restoring_force(sub, y)
        f_total = 3.5 + 7.101612903225806
        assert np.allclose(r[2], f_total, rtol=1e-12)
        assert np.allclose(r[3], -f_total, rtol=1e-12)
        assert np.allclose(r[:2], [-1.0, 0.0])

    @staticmethod
    def damper(xd):
        # wheel momentum row of one relative-motion element at zero deflection
        return restoring_force(suspension(1), [0.0, 0.0, xd, 0.0])[2]

    def test_element_rest_state_zero_force(self):
        assert self.damper(0.0) == 0.0

    def test_damper_force_is_odd(self):
        for xd in (1e-3, 0.1, 1.0, 17.3):
            assert self.damper(-xd) == pytest.approx(-self.damper(xd), rel=1e-14)

    def test_damper_monotone_and_friction_bounded(self):
        xd = np.linspace(-50, 50, 4001)
        f = np.array([self.damper(x) for x in xd])
        assert np.all(np.diff(f) > 0)
        assert np.all(np.abs(f - COEFF["c1"] * xd) < COEFF["c2"])

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError, match="length"):
            restoring_force(sdof(), [1.0, 0.0, 0.0])

    def test_linear_restoring_equals_tangent_product(self):
        rng = np.random.default_rng(7)
        sub = LinearSubstructure(
            mass=np.diag(rng.uniform(0.5, 2.0, 4)),
            damping=0.1 * np.eye(4),
            stiffness=np.diag(rng.uniform(1.0, 5.0, 4)),
            internal_dofs=(0, 1, 2), boundary_dofs=(3,),
        )
        r0 = tangent_at_zero(sub)
        for _ in range(20):
            y = rng.standard_normal(8) * 10
            assert np.allclose(restoring_force(sub, y), r0 @ y, rtol=1e-12, atol=1e-12)

    def test_absolute_motion_variant(self):
        sub = NonlinearSubstructure(elements=(SuspensionElement(**COEFF),), relative_motion=False)
        y = np.array([0.1, 0.5, 1.0, 2.0])
        r = restoring_force(sub, y)
        # forces depend on the wheel state only; nothing reacts on the attachment
        assert r[2] == pytest.approx(35.0 * 0.1 + 0.65 + 10 / 1.55)
        assert r[3] == 0.0


class TestTangent:
    def test_linear_tangent_exact_blocks(self):
        sub = two_mass_chain(k=3.0)
        r0 = tangent_at_zero(sub)
        assert np.array_equal(r0[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(r0[:2, 2:], -np.eye(2))
        assert np.array_equal(r0[2:, :2], sub.stiffness)
        assert np.array_equal(r0[2:, 2:], sub.damping)

    def test_suspension_tangent_damping_value(self):
        # c1 + c2/c3 = 0.65 + 10/0.55 = 18.831818181818182
        e = SuspensionElement(**COEFF)
        assert e.tangent_damping == pytest.approx(18.831818181818182, rel=1e-14)
        sub = suspension(1)
        r0 = tangent_at_zero(sub)
        assert r0[2, 2] == pytest.approx(18.831818181818182, rel=1e-14)
        assert r0[2, 0] == pytest.approx(35.0)

    def test_tangent_matches_finite_differences(self):
        for sub in (two_mass_chain(), suspension(3)):
            form = assemble_first_order(sub)
            fd = finite_difference_tangent(form.restoring, form.state_size, step=1e-6)
            analytic = tangent_at_zero(sub)
            scale = np.abs(analytic).max()
            assert np.abs(fd - analytic).max() <= 1e-6 * scale

    def test_tangent_first_order_consistency(self):
        # ||R(eps e_i) - R(0) - eps R0 e_i|| = O(eps^2)
        sub = suspension(2)
        r0 = tangent_at_zero(sub)
        n2 = 2 * sub.n_dofs
        for i in range(n2):
            errs = []
            for eps in (1e-3, 1e-4):
                e = np.zeros(n2)
                e[i] = eps
                errs.append(np.linalg.norm(restoring_force(sub, e) - eps * r0[:, i]))
            assert errs[0] <= 1e-12 or errs[1] <= errs[0] * 0.05


class TestFirstOrderForm:
    def test_dimensions_and_invertibility(self):
        for sub in (sdof(), two_mass_chain(), suspension(4)):
            form = assemble_first_order(sub)
            n = sub.n_dofs
            assert form.A.shape == (2 * n, 2 * n)
            # invertible mass operator
            assert np.linalg.cond(form.A) < 1e12

    def test_block_layout(self):
        sub = suspension(2)
        form = assemble_first_order(sub)
        n = sub.n_dofs
        assert np.array_equal(form.A[:n, :n], np.eye(n))
        assert np.array_equal(form.A[n:, n:], sub.mass)
        assert np.array_equal(form.A[:n, n:], np.zeros((n, n)))


class TestMomentumLaw:
    """The condensed trapezoidal step needs every force law affine in u with slope K."""

    @pytest.mark.parametrize("kind", FORCE_LAW_KINDS)
    def test_affine_in_displacement_with_tangent_slope(self, kind):
        form = first_order_forms()[kind]
        rng = np.random.default_rng(11)
        n = form.n_dofs
        for _ in range(20):
            u, delta = rng.standard_normal(n), rng.standard_normal(n)
            v = 5.0 * rng.standard_normal(n)  # friction well into saturation
            shifted, base = form.momentum(u + delta, v), form.momentum(u, v)
            slope = form.stiffness @ delta
            scale = max(np.abs(shifted).max(), np.abs(base).max(), np.abs(slope).max())
            assert np.abs(shifted - base - slope).max() <= 1e-12 * scale

    def test_stacked_banks_each_keep_their_own_law(self):
        # the stacked coefficient rows follow the members' element rows in order
        members = two_bank_forms()
        form = first_order_forms()["two_banks"]
        assert form.n_dofs == sum(member.n_dofs for member in members)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(form.n_dofs)
        v = 5.0 * rng.standard_normal(form.n_dofs)  # friction well into saturation
        stacked = form.momentum(u, v)
        start = 0
        for member in members:
            rows = slice(start, start + member.n_dofs)
            own = member.momentum(u[rows], v[rows])
            assert np.abs(stacked[rows] - own).max() <= 1e-14 * np.abs(own).max()
            start = rows.stop

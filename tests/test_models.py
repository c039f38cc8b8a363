"""Model construction, restoring-force evaluation, and tangent linearization."""

import re

import numpy as np
import pytest
import scipy.sparse

import dynsub.models
import dynsub.coupling
import dynsub.reduction
from dynsub import (
    CoupledSystem,
    CouplingTopology,
    LinearSubstructure,
    ModelError,
    NonlinearSubstructure,
    SuspensionElement,
    assemble_first_order,
    assemble_global,
    finite_difference_tangent,
    tangent_at_zero,
)

from dynsub import reduce as cb_reduce
from dynsub.experiment import ExperimentConfig
from dynsub.generators import chain_matrices, frame_analog, frame_substructure
from dynsub.io import load_system, save_system
from dynsub.models import number_tuple, require_numbers, restoring_force
from dynsub.signals import SignalError, SignalSpec, multisine_with_noise_channels
from dynsub.solver import SolverConfig, SolverError

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
    elements = (SuspensionElement(**coeff),) * n
    return NonlinearSubstructure(elements=elements)


def stored(matrix, storage):
    """``matrix`` as it is given, or as a CSR array: every check runs on both storages."""
    return matrix if storage == "dense" else scipy.sparse.csr_array(np.asarray(matrix, dtype=float))


STORAGES = ("dense", "csr")


def linear(storage, mass, damping, stiffness, internal_dofs=(0,), boundary_dofs=(1,)):
    return LinearSubstructure(
        mass=stored(mass, storage), damping=stored(damping, storage), stiffness=stored(stiffness, storage),
        internal_dofs=internal_dofs, boundary_dofs=boundary_dofs,
    )


class TestValidation:
    def test_asymmetric_mass_rejected(self):
        for storage in STORAGES:
            with pytest.raises(ModelError, match="mass matrix is not symmetric"):
                linear(storage, [[1.0, 0.5], [0.0, 1.0]], np.zeros((2, 2)), np.eye(2))

    def test_asymmetric_stiffness_rejected(self):
        for storage in STORAGES:
            with pytest.raises(ModelError, match="stiffness matrix is not symmetric"):
                linear(storage, np.eye(2), np.zeros((2, 2)), [[1.0, 0.3], [0.0, 1.0]])

    def test_asymmetry_within_tolerance_accepted(self):
        for storage in STORAGES:
            linear(storage, np.eye(2), np.zeros((2, 2)), [[1.0, 0.3], [0.3 + 5e-11, 1.0]])
            with pytest.raises(ModelError, match="stiffness matrix is not symmetric within relative tolerance"):
                linear(storage, np.eye(2), np.zeros((2, 2)), [[1.0, 0.3], [0.3 + 2e-10, 1.0]])

    def test_nonpositive_mass_diagonal_rejected(self):
        for storage in STORAGES:
            with pytest.raises(ModelError, match="positive diagonal"):
                linear(storage, np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2))

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

    def test_internal_dofs_default_to_every_dof_not_on_the_boundary(self):
        for storage in STORAGES:
            sub = LinearSubstructure(mass=stored(np.eye(4), storage), damping=np.zeros((4, 4)),
                                     stiffness=np.eye(4), boundary_dofs=(np.int64(3), 1))
            assert sub.internal_dofs == (0, 2) and sub.boundary_dofs == (3, 1)
            assert all(type(i) is int for i in sub.internal_dofs + sub.boundary_dofs)
        assert LinearSubstructure(mass=np.eye(2), damping=np.zeros((2, 2)), stiffness=np.eye(2)).internal_dofs == (0, 1)

    @pytest.mark.parametrize("boundary", [(3,), (-1,), (1, 1), (10**30,), [0, 10**30], np.array([2, 2])],
                             ids=["out_of_range", "negative", "repeated", "huge", "huge_after_a_dof", "repeated_array"])
    def test_default_internal_dofs_leave_a_bad_boundary_to_the_cover_check(self, boundary):
        with pytest.raises(ModelError, match="disjointly cover all 3 DOFs"):
            LinearSubstructure(mass=np.eye(3), damping=np.zeros((3, 3)), stiffness=np.eye(3), boundary_dofs=boundary)

    @pytest.mark.parametrize("field", ["boundary_dofs", "internal_dofs"])
    @pytest.mark.parametrize("dofs, entry", [([True, 2], True), (np.array([True]), True), ([2.0], 2.0), (["2"], "2")],
                             ids=["bool_beside_an_int", "bool_array", "float", "string"])
    def test_a_dof_that_is_no_integer_is_refused_naming_it(self, field, dofs, entry):
        # np.asarray reads [True, 2] as [1, 2]
        message = f"field {field!r} must be a list of integers, got entry {entry!r}"
        with pytest.raises(ModelError, match=re.escape(message)):
            LinearSubstructure(mass=np.eye(3), damping=np.zeros((3, 3)), stiffness=np.eye(3),
                               **{"internal_dofs": (0, 1), "boundary_dofs": (2,), field: dofs})

    def test_dimension_mismatch_rejected(self):
        for storage in STORAGES:
            with pytest.raises(ModelError, match=r"matrix sizes disagree: mass \(2, 2\), damping \(3, 3\)"):
                linear(storage, np.eye(2), np.zeros((3, 3)), np.eye(2))

    def test_non_square_rejected(self):
        for storage in STORAGES:
            with pytest.raises(ModelError, match=r"mass matrix must be a square matrix, got shape \(2, 3\)"):
                linear(storage, np.ones((2, 3)), np.zeros((2, 2)), np.eye(2))

    def test_suspension_c3_must_be_positive(self):
        with pytest.raises(ModelError, match="c3"):
            SuspensionElement(mass=0.16, k1=35.0, c1=0.65, c2=10.0, c3=0.0)

    def test_suspension_mass_must_be_positive(self):
        with pytest.raises(ModelError, match="mass"):
            SuspensionElement(mass=-1.0, k1=35.0, c1=0.65, c2=10.0, c3=0.55)

    @pytest.mark.parametrize("field", ["mass", "damping", "stiffness"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_entry_rejected_naming_the_matrix(self, field, bad):
        for storage in STORAGES:
            matrices = {"mass": np.eye(2), "damping": np.zeros((2, 2)), "stiffness": np.eye(2)}
            matrices[field][1, 0] = bad
            with pytest.raises(ModelError, match=rf"'{field}' holds a non-finite value \({bad}\) in row 1, column 0"):
                linear(storage, **matrices)

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

    @pytest.mark.parametrize("field, build", [
        ("k1", lambda: SuspensionElement(**{**COEFF, "k1": "35"})),
        ("relative_motion", lambda: NonlinearSubstructure(elements=suspension().elements, relative_motion="no")),
        ("boundary_mass", lambda: NonlinearSubstructure(elements=suspension().elements, boundary_mass="0.016")),
        ("boundary_dofs", lambda: linear("dense", np.eye(2), np.zeros((2, 2)), np.eye(2), boundary_dofs=(1.5,))),
        ("boundary_dofs", lambda: linear("dense", np.eye(2), np.zeros((2, 2)), np.eye(2), boundary_dofs=(True,))),
        ("internal_dofs", lambda: linear("dense", np.eye(2), np.zeros((2, 2)), np.eye(2), internal_dofs=0)),
    ], ids=["k1", "relative_motion", "boundary_mass", "fractional_dof", "bool_dof", "dofs_not_a_list"])
    def test_wrongly_typed_field_rejected_naming_it(self, field, build):
        with pytest.raises(ModelError, match=repr(field)):
            build()

    def test_dof_lists_of_numpy_integers_accepted(self):
        sub = linear("dense", np.eye(2), np.zeros((2, 2)), np.eye(2), internal_dofs=np.array([0]),
                     boundary_dofs=(np.int64(1),))
        assert sub.internal_dofs == (0,) and sub.boundary_dofs == (1,)
        assert all(type(i) is int for i in sub.internal_dofs + sub.boundary_dofs)

    def test_matrices_locked_after_construction(self):
        for storage in STORAGES:
            sub = linear(storage, np.eye(2), 0.1 * np.eye(2), [[2.0, -1.0], [-1.0, 1.0]])
            for name in ("mass", "damping", "stiffness"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(sub, name)[1, 1] = 99.0  # a stored entry of either storage


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

    @pytest.mark.parametrize("sparse", [False, True])
    def test_linear_law_takes_vectors_and_blocks_of_columns(self, sparse):
        # K u + C v is one product of the stored [K C] with [u; v]
        frame = frame_substructure(n=40, boundary_dofs=(9, 19, 29, 39))
        form = assemble_global({"frame": frame}, CouplingTopology(()), sparse=sparse).first_order()
        rng = np.random.default_rng(2)
        for shape in ((40,), (40, 3)):
            u, v = rng.standard_normal(shape), rng.standard_normal(shape)
            expected = frame.stiffness @ u + frame.damping @ v
            assert np.abs(form.momentum(u, v) - expected).max() <= 1e-14 * np.abs(expected).max()


class TestScatterEntries:
    """``models._scatter_entries``: the one code that builds a square matrix from entries."""

    def test_two_entries_at_one_position_give_the_same_bytes_in_both_storages(self):
        # (1, 1) is hit twice, as a merged DOF is, and 0.1 + 0.2 is not 0.3
        rows, cols = np.array([0, 1, 1, 2, 1]), np.array([0, 1, 2, 1, 1])
        values = np.array([1.0, 0.1, -0.5, -0.5, 0.2])
        full = dynsub.models._scatter_entries(3, rows, cols, values, False)
        csr = dynsub.models._scatter_entries(3, rows, cols, values, True)
        assert isinstance(full, np.ndarray) and isinstance(csr, scipy.sparse.csr_array)
        assert full[1, 1] == 0.1 + 0.2 != 0.3
        assert csr.toarray().tobytes() == full.tobytes()

    def test_many_entries_at_one_position_sum_in_entry_order_in_both_storages(self):
        # 200 entries over 5 positions of one row: each position sums about 40
        # values, whose rounding shows any change of the summation order
        rng = np.random.default_rng(7)
        rows, cols = np.full(200, 2), rng.integers(0, 5, 200)
        values = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200)
        full = dynsub.models._scatter_entries(5, rows, cols, values, False)
        csr = dynsub.models._scatter_entries(5, rows, cols, values, True)
        in_order = np.zeros(5)
        for col, value in zip(cols, values):
            in_order[col] += value
        assert full[2].tobytes() == in_order.tobytes()
        assert csr.toarray().tobytes() == full.tobytes()

    def test_generators_reader_assembly_and_reduction_call_it(self, monkeypatch, tmp_path):
        calls = []
        original = dynsub.models._scatter_entries

        def counted(n, rows, cols, values, sparse):
            calls.append((n, sparse))
            return original(n, rows, cols, values, sparse)

        for module in (dynsub.models, dynsub.coupling, dynsub.reduction):
            monkeypatch.setattr(module, "_scatter_entries", counted)

        def made_by(action):
            calls.clear()
            action()
            return list(calls)

        for n in (200, 1000):
            csr = n >= dynsub.models._SPARSE_MIN_DOFS
            subs, topology = frame_analog(n=n)
            # the frame's mass and stiffness; its damping is their Rayleigh sum
            assert made_by(lambda: frame_analog(n=n)) == [(n, csr)] * 2
            save_system(tmp_path / "model.json", CoupledSystem(substructures=subs, topology=topology))
            assert made_by(lambda: load_system(tmp_path / "model.json")) == [(n, csr)] * 3
            for sparse in (False, True):  # the frame and 8 suspension DOFs, 4 of them merged
                assert made_by(lambda: assemble_global(subs, topology, sparse=sparse)) == [(n + 4, sparse)] * 3
            # a dense internal block below the size gate is reordered into dense arrays
            assert made_by(lambda: cb_reduce(subs["frame"], 30)) == [(n, csr)] * 3


class TestNonzeros:
    """``LinearSubstructure.nonzeros``: each dense matrix scanned once, entries in CSR order."""

    def test_row_major_entries_of_each_matrix(self):
        frame = frame_substructure(n=40, boundary_dofs=(9, 19, 29, 39))
        assert frame.nonzeros is frame.nonzeros
        for name, (rows, cols, values) in frame.nonzeros.items():
            matrix = getattr(frame, name)
            csr = scipy.sparse.csr_array(matrix)
            assert np.array_equal(np.repeat(np.arange(40), np.diff(csr.indptr)), rows), name
            assert np.array_equal(csr.indices, cols), name
            assert np.array_equal(csr.data, values), name
            assert np.array_equal(np.transpose(np.nonzero(matrix)), np.column_stack([rows, cols])), name

    def test_csr_entries_are_its_arrays(self):
        # no scan: the column indices and values are the CSR arrays themselves
        frame = frame_substructure(n=1000)
        assert frame.sparse
        for name, (rows, cols, values) in frame.nonzeros.items():
            matrix = getattr(frame, name)
            assert cols is matrix.indices and values is matrix.data, name
            assert np.array_equal(np.repeat(np.arange(1000), np.diff(matrix.indptr)), rows), name

    def test_each_frame_matrix_is_scanned_once(self, monkeypatch, tmp_path):
        # the model write, the sparse assembly and the sparse reduction share one
        # scan of each dense frame matrix; a CSR frame's are never scanned
        scanned = []
        original = dynsub.models.nonzero_entries

        def counted(matrix):
            scanned.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(dynsub.models, "nonzero_entries", counted)
        monkeypatch.setattr(dynsub.coupling, "nonzero_entries", counted)
        for n, scans in ((200, 3), (1000, 0)):
            subs, topology = frame_analog(n=n)
            save_system(tmp_path / "model.json", CoupledSystem(substructures=subs, topology=topology))
            assemble_global(subs, topology, sparse=True)
            cb_reduce(subs["frame"], 30)
            assert scanned.count((n, n)) == scans, n


_NAN, _INF = float("nan"), float("inf")
_BAD = {
    "positive": (0, -1, _NAN, _INF, True, "x"),
    "non-negative": (-1, _NAN, _INF, True, "x"),
    "finite": (_NAN, _INF, True, "x"),
}
_LIST_FIELDS = ("frequencies", "amplitudes", "phases", "band", "sine_frequencies", "sine_amplitudes")


def _number_fields():
    """One case per range-checked number field and bad value: (name, error, build, value)."""
    multisine = dict(kind="multisine", sample_rate=100.0, frequencies=(2.0,), amplitudes=(1.0,))
    noise = dict(kind="bandlimited_noise", sample_rate=100.0, band=(0.0, 20.0))
    channels = dict(n_channels=2, n_samples=5, sample_rate=100.0, frequencies=[2.0], amplitudes=[1.0],
                    noise_variance=0.1)
    owners = {  # owner: (its error, a build from one field, {field: rule})
        "SuspensionElement": (ModelError, lambda **f: SuspensionElement(**{**COEFF, **f}), dict(
            mass="positive", c3="positive", k1="finite", c1="finite", c2="finite")),
        "NonlinearSubstructure": (ModelError, lambda **f: NonlinearSubstructure((SuspensionElement(**COEFF),), **f),
                                  dict(boundary_mass="positive")),
        "chain_matrices": (ModelError, lambda **f: chain_matrices(**{"n": 3, "m": 1.0, "k": 1.0, **f}), dict(
            n="positive", m="positive", k="non-negative", c="non-negative")),
        "frame_substructure": (ModelError, lambda **f: frame_substructure(n=16, **f), dict(
            heavy_every="non-negative", m_light="positive", m_heavy="positive", k="non-negative",
            rayleigh_alpha="non-negative", rayleigh_beta="non-negative")),
        "SignalSpec_multisine": (SignalError, lambda **f: SignalSpec(**{**multisine, **f}), dict(
            sample_rate="positive", noise_variance="non-negative", seed="non-negative", frequencies="finite",
            amplitudes="finite", phases="finite")),
        "SignalSpec_noise": (SignalError, lambda **f: SignalSpec(**{**noise, **f}), dict(
            variance="non-negative", band="non-negative")),
        "multisine_with_noise_channels": (SignalError, lambda **f: multisine_with_noise_channels(**{**channels, **f}),
                                          dict(noise_variance="non-negative", seed="non-negative")),
        "ExperimentConfig": (ModelError, ExperimentConfig, dict(
            modes="positive", seed="non-negative", noise_variance="non-negative", sine_frequencies="finite",
            sine_amplitudes="finite")),
        "SolverConfig": (SolverError, lambda **f: SolverConfig(**{"dt": 1e-3, "duration": 1.0, **f}), dict(
            dt="positive", duration="positive", subcycles="positive")),
    }
    return [pytest.param(name, error, build, (bad, 20.0) if name in _LIST_FIELDS else bad, id=f"{owner}-{name}-{bad!r}")
            for owner, (error, build, rules) in owners.items() for name, rule in rules.items() for bad in _BAD[rule]]


class TestNumberFields:
    """Each number field is checked once, for its type, finiteness and sign, and the error names it."""

    @pytest.mark.parametrize("name, error, build, bad", _number_fields())
    def test_bad_value_refused_naming_the_field(self, name, error, build, bad):
        with pytest.raises(error, match=f"field {name!r}"):
            build(**{name: bad})

    @pytest.mark.parametrize("integers, sign, value, message", [
        (False, "positive", -1, "field 'x' must be a finite positive number, got -1"),
        (False, "non-negative", float("nan"), "field 'x' must be a finite non-negative number, got nan"),
        (False, "finite", float("inf"), "field 'x' must be a finite number, got inf"),
        (False, "positive", "1", "field 'x' must be a number, got '1'"),
        (True, "positive", 0, "field 'x' must be a positive integer, got 0"),
        (True, "non-negative", 1.0, "field 'x' must be an integer, got 1.0"),
    ], ids=["negative", "nan", "infinite", "string", "zero_integer", "float_integer"])
    def test_one_message_form(self, integers, sign, value, message):
        with pytest.raises(ValueError) as raised:
            require_numbers(ValueError, integers, sign, x=value)
        assert str(raised.value) == message

    def test_an_int_beyond_the_float_range(self):
        # an integer field takes it, as numpy takes it for a seed; a number field has no float for it
        require_numbers(ValueError, True, "non-negative", x=10**400)
        with pytest.raises(ValueError, match="field 'x' must be a finite positive number, got 1000"):
            require_numbers(ValueError, False, "positive", x=10**400)
        with pytest.raises(ValueError, match="field 'x' must be a float-range number, got 1000"):
            require_numbers(ValueError, x=10**400)
        require_numbers(ValueError, x=float("inf"))

    def test_list_entries_meet_the_sign(self):
        assert number_tuple(ValueError, "xs", [0, 2.5], sign="non-negative") == (0.0, 2.5)
        with pytest.raises(ValueError, match="field 'xs' must be a list of finite non-negative numbers, got entry -1"):
            number_tuple(ValueError, "xs", [0, -1], sign="non-negative")

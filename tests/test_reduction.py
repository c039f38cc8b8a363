"""Craig-Bampton reduction: modes, constraint shapes, projection, expansion."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import dynsub.reduction
from dynsub import LinearSubstructure, ReductionError, constraint_modes, expand, fixed_interface_modes
from dynsub import reduce as cb_reduce
from dynsub.generators import chain_substructure, frame_substructure
from dynsub.models import dense
from dynsub.reduction import _InternalProblem, _canonical_modes, _cluster_starts, full_frequencies, reduced_frequencies


def chain(n, boundary, m=1.0, k=1.0, grounded=True):
    return chain_substructure(n=n, m=m, k=k, grounded=grounded, boundary_dofs=boundary)


class TestFixedInterfaceModes:
    def test_scalar_eigenproblem(self):
        # one internal DOF with m=1, k=4: frequency 2 rad/s, mode [1]
        sub = LinearSubstructure(
            mass=np.eye(2), damping=np.zeros((2, 2)),
            stiffness=[[4.0, 0.0], [0.0, 1.0]],
            internal_dofs=(0,), boundary_dofs=(1,),
        )
        phi, freqs = fixed_interface_modes(sub, 1)
        assert freqs[0] == pytest.approx(2.0, rel=1e-12)
        assert abs(phi[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_three_mass_fixed_fixed_chain(self):
        # internal 3x3 tridiagonal [2,-1] block: squared frequencies 2-sqrt2, 2, 2+sqrt2
        sub = chain(5, boundary=(0, 4))
        # make both ends boundary: internal block is the fixed-fixed chain
        _, freqs = fixed_interface_modes(sub, 3)
        expected = np.sqrt([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
        assert np.allclose(freqs, expected, rtol=1e-12)

    def test_mass_normalization_and_stiffness_diagonalization(self):
        sub = chain(20, boundary=(19,), m=2.5, k=7.0)
        phi, freqs = fixed_interface_modes(sub, 8)
        i = list(sub.internal_dofs)
        m_ii = sub.mass[np.ix_(i, i)]
        k_ii = sub.stiffness[np.ix_(i, i)]
        assert np.allclose(phi.T @ m_ii @ phi, np.eye(8), atol=1e-8)
        assert np.allclose(phi.T @ k_ii @ phi, np.diag(freqs**2), atol=1e-8 * freqs.max() ** 2)

    def test_frequencies_ascending(self):
        sub = chain(30, boundary=(29,))
        _, freqs = fixed_interface_modes(sub, 10)
        assert np.all(np.diff(freqs) >= 0)

    def test_too_many_modes_rejected(self):
        sub = chain(5, boundary=(4,))
        with pytest.raises(ReductionError, match="only 4 internal"):
            fixed_interface_modes(sub, 5)

    def test_eigensolver_residual_contract(self):
        rng = np.random.default_rng(3)
        n = 40
        q = rng.standard_normal((n, n))
        m = q @ q.T + n * np.eye(n)
        x = rng.standard_normal((n, n))
        k = x @ x.T
        sub = LinearSubstructure(
            mass=m, damping=np.zeros((n, n)), stiffness=k,
            internal_dofs=tuple(range(n - 2)), boundary_dofs=(n - 2, n - 1),
        )
        phi, freqs = fixed_interface_modes(sub, 10)
        i = list(sub.internal_dofs)
        k_ii, m_ii = k[np.ix_(i, i)], m[np.ix_(i, i)]
        k_norm = np.linalg.norm(k_ii)
        for j in range(10):
            resid = np.linalg.norm(k_ii @ phi[:, j] - freqs[j] ** 2 * (m_ii @ phi[:, j]))
            assert resid <= 1e-8 * k_norm * np.linalg.norm(phi[:, j])


class TestConstraintModes:
    def test_hand_solved_single_internal_dof(self):
        # internal node between a ground spring and the interface spring:
        # K_ii = [2k], K_ib = [-k]  ->  psi = [0.5]
        sub = chain(2, boundary=(1,), k=3.0)
        psi = constraint_modes(sub)
        assert psi.shape == (1, 1)
        assert psi[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_uncoupled_boundary_gives_zero(self):
        sub = LinearSubstructure(
            mass=np.eye(3), damping=np.zeros((3, 3)),
            stiffness=np.diag([2.0, 2.0, 5.0]),
            internal_dofs=(0, 1), boundary_dofs=(2,),
        )
        assert np.allclose(constraint_modes(sub), 0.0)

    def test_rigid_body_row_sums_free_free_chain(self):
        # moving every boundary DOF by one translates the interior rigidly
        sub = chain(5, boundary=(0, 4), grounded=False)
        psi = constraint_modes(sub)
        assert np.allclose(psi.sum(axis=1), 1.0, atol=1e-10)
        # cross-check against an independently inverted static solve
        i, b = list(sub.internal_dofs), list(sub.boundary_dofs)
        k_ii = sub.stiffness[np.ix_(i, i)]
        k_ib = sub.stiffness[np.ix_(i, b)]
        assert np.allclose(psi, -np.linalg.inv(k_ii) @ k_ib, atol=1e-12)

    def test_singular_internal_block_reported(self):
        # free-free chain with boundary at one end only leaves the interior
        # grounded through the boundary, so pick a disconnected DOF instead
        sub = LinearSubstructure(
            mass=np.eye(3), damping=np.zeros((3, 3)),
            stiffness=[[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            internal_dofs=(0, 1), boundary_dofs=(2,),
        )
        with pytest.raises(ReductionError, match="rank"):
            constraint_modes(sub)

    def test_no_internal_dofs(self):
        # every DOF on the boundary: K_ii is empty and the basis is the identity
        sub = LinearSubstructure(
            mass=np.eye(2), damping=np.zeros((2, 2)), stiffness=[[2.0, -1.0], [-1.0, 2.0]],
            internal_dofs=(), boundary_dofs=(0, 1),
        )
        assert constraint_modes(sub).shape == (0, 2)
        assert np.array_equal(cb_reduce(sub, 0).transform, np.eye(2))


class TestReduce:
    def test_full_basis_is_exact_congruence(self):
        sub = chain(10, boundary=(4, 9))
        red = cb_reduce(sub, 8)  # r = n_i: exact
        lam_full = scipy.linalg.eigh(sub.stiffness, sub.mass, eigvals_only=True)
        lam_red = scipy.linalg.eigh(red.reduced_stiffness, red.reduced_mass, eigvals_only=True)
        assert np.allclose(lam_red, lam_full, rtol=1e-10)

    def test_transform_block_structure(self):
        sub = chain(10, boundary=(3, 9))
        red = cb_reduce(sub, 4)
        n_i, n_b, r = 8, 2, 4
        assert red.transform.shape == (n_i + n_b, r + n_b)
        assert np.array_equal(red.transform[n_i:, :r], np.zeros((n_b, r)))
        assert np.array_equal(red.transform[n_i:, r:], np.eye(n_b))

    def test_reduced_matrices_symmetric(self):
        sub = chain(15, boundary=(14,), k=2.0)
        red = cb_reduce(sub, 5)
        for mat in (red.reduced_mass, red.reduced_stiffness):
            assert np.abs(mat - mat.T).max() <= 1e-8 * np.abs(mat).max()

    def test_reduced_mass_positive_definite_any_mode_count(self):
        sub = chain(12, boundary=(11,))
        for r in (0, 1, 5, 11):
            red = cb_reduce(sub, r)
            # Cholesky succeeds only for positive definite matrices
            scipy.linalg.cholesky(red.reduced_mass)

    def test_frequencies_upper_bounds_and_monotone_in_r(self):
        sub = chain(12, boundary=(11,))
        full = full_frequencies(sub)
        prev = None
        for r in (2, 4, 6, 8, 11):
            freqs = reduced_frequencies(cb_reduce(sub, r))
            n_check = min(6, len(freqs))
            assert np.all(freqs[:n_check] >= full[:n_check] - 1e-10)
            if prev is not None:
                m = min(len(prev), len(freqs))
                assert np.all(freqs[:m] <= prev[:m] + 1e-10)
            prev = freqs

    def test_truncation_frequency_reported(self):
        sub = chain(12, boundary=(11,))
        red = cb_reduce(sub, 5)
        _, all_freqs = fixed_interface_modes(sub, 6)
        assert red.truncation_frequency == pytest.approx(all_freqs[5])
        assert cb_reduce(sub, 11).truncation_frequency is None

    def test_transfer_function_exact_at_full_basis(self):
        sub = chain(8, boundary=(7,), k=4.0, m=0.5)
        red = cb_reduce(sub, 7)
        b_full = [7]
        b_red = [red.n_modes]
        for w in (0.3, 1.1, 2.7):
            h_full = np.linalg.inv(sub.stiffness - w**2 * sub.mass + 1j * w * sub.damping)
            h_red = np.linalg.inv(
                red.reduced_stiffness - w**2 * red.reduced_mass + 1j * w * red.reduced_damping
            )
            a = h_full[np.ix_(b_full, b_full)]
            b = h_red[np.ix_(b_red, b_red)]
            assert np.abs(a - b).max() <= 1e-8 * np.abs(a).max()

    def test_damping_projected_by_congruence(self):
        sub = chain_substructure(n=6, m=1.0, k=2.0, c=0.1, boundary_dofs=(5,))
        red = cb_reduce(sub, 3)
        i = list(sub.internal_dofs) + list(sub.boundary_dofs)
        c_re = sub.damping[np.ix_(i, i)]
        assert np.allclose(red.reduced_damping, red.transform.T @ c_re @ red.transform)


class TestExpand:
    def test_zero_modal_part_reproduces_constraint_mode(self):
        sub = chain(10, boundary=(4, 9))
        red = cb_reduce(sub, 3)
        coords = np.zeros(red.n_reduced)
        coords[red.n_modes] = 1.0  # first boundary DOF
        x = expand(red, coords)
        assert np.allclose(x[list(sub.internal_dofs)], red.constraint_modes[:, 0])
        assert x[4] == pytest.approx(1.0)
        assert x[9] == pytest.approx(0.0, abs=1e-14)

    def test_zero_reduced_state(self):
        red = cb_reduce(chain(6, boundary=(5,)), 2)
        assert np.array_equal(expand(red, np.zeros(red.n_reduced)), np.zeros(6))

    def test_round_trip_on_span(self):
        sub = chain(10, boundary=(9,))
        red = cb_reduce(sub, 4)
        rng = np.random.default_rng(11)
        pinv = np.linalg.pinv(red.transform)
        order = list(sub.internal_dofs) + list(sub.boundary_dofs)
        for _ in range(10):
            coords = rng.standard_normal(red.n_reduced)
            x_re = red.transform @ coords
            back = expand(red, pinv @ x_re)
            assert np.allclose(back[order], x_re, atol=1e-10)

    def test_dimension_checked(self):
        red = cb_reduce(chain(6, boundary=(5,)), 2)
        with pytest.raises(ReductionError, match="length"):
            expand(red, np.zeros(red.n_reduced + 1))

    def test_project_force_boundary_passthrough(self):
        sub = chain(10, boundary=(4, 9))
        red = cb_reduce(sub, 3)
        f = np.zeros(10)
        f[9] = 2.0
        fr = red.project_force(f)
        assert fr[red.n_modes + 1] == pytest.approx(2.0)
        assert np.allclose(fr[: red.n_modes], 0.0)


def internal_mass(sub):
    i = list(sub.internal_dofs)
    return dense(sub.mass)[np.ix_(i, i)]


def frame_with_internal(n_internal):
    """Frame analog with ``n_internal`` internal DOFs and its four default boundary DOFs."""
    return frame_substructure(n=n_internal + 4)


def frame_with(frame, **matrices):
    fields = dict(mass=frame.mass, damping=frame.damping, stiffness=frame.stiffness)
    return LinearSubstructure(**{**fields, **matrices},
                              internal_dofs=frame.internal_dofs, boundary_dofs=frame.boundary_dofs)


@pytest.fixture
def counted_eigsh(monkeypatch):
    """Counts the calls of ARPACK's ``eigsh``, which only the sparse path makes."""
    calls = []
    original = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    return calls


def dense_copy(sub):
    """``sub`` with its matrices held as dense arrays."""
    return frame_with(sub, mass=dense(sub.mass), damping=dense(sub.damping), stiffness=dense(sub.stiffness))


def take_dense_path(monkeypatch, sub):
    """A dense copy of ``sub``, reduced by dense LAPACK while ``monkeypatch`` lasts."""
    monkeypatch.setattr(dynsub.reduction, "_SPARSE_MIN_DOFS", sub.n_dofs + 1)
    return dense_copy(sub)


def dense_reduce(monkeypatch, sub, n_modes):
    with monkeypatch.context() as m:
        return cb_reduce(take_dense_path(m, sub), n_modes)


class TestSparsePath:
    """CSR substructures and internal blocks from ``_SPARSE_MIN_DOFS`` on: eigsh and splu on CSR blocks."""

    @pytest.mark.parametrize("n_internal, n_modes", [
        (996, 30), (996, 31), (dynsub.reduction._SPARSE_MIN_DOFS + 1, 30),
    ])
    def test_agrees_with_the_dense_path(self, monkeypatch, counted_eigsh, n_internal, n_modes):
        frame = frame_with_internal(n_internal)
        sparse = cb_reduce(frame, n_modes)
        assert counted_eigsh
        dense = dense_reduce(monkeypatch, frame, n_modes)
        assert len(counted_eigsh) == 1

        def assert_close(a, b, rtol):
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()

        assert np.all(np.abs(sparse.retained_frequencies / dense.retained_frequencies - 1) <= 1e-11)
        assert sparse.truncation_frequency == pytest.approx(dense.truncation_frequency, rel=1e-11)
        assert_close(sparse.retained_modes, dense.retained_modes, 1e-9)
        assert_close(sparse.constraint_modes, dense.constraint_modes, 1e-12)
        for name in ("reduced_mass", "reduced_damping", "reduced_stiffness"):
            assert_close(getattr(sparse, name), getattr(dense, name), 1e-10)
        for red in (sparse, dense):
            gram = red.retained_modes.T @ internal_mass(frame) @ red.retained_modes
            assert np.abs(gram - np.eye(n_modes)).max() <= 1e-12

    def test_csr_reorder_equals_the_dense_reorder(self):
        # the CSR internal-first matrices, scattered from the entries, hold the
        # bytes of the np.ix_ reorder that a small dense substructure takes
        frame = frame_substructure()
        csr = frame_with(frame, **{name: scipy.sparse.csr_array(getattr(frame, name))
                                   for name in ("mass", "damping", "stiffness")})
        sparse, full = _InternalProblem(csr), _InternalProblem(frame)
        assert sparse.sparse and not full.sparse
        for name in ("mass", "damping", "stiffness"):
            assert getattr(sparse, name).toarray().tobytes() == getattr(full, name).tobytes(), name

    def test_two_reductions_are_byte_identical(self):
        first, second = cb_reduce(frame_with_internal(996), 30), cb_reduce(frame_with_internal(996), 30)
        for field in dataclasses.fields(first):
            a, b = getattr(first, field.name), getattr(second, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    def test_cut_inside_a_repeated_pair(self):
        # the 30-mode cut of the 1000-DOF frame splits a pair of equal frequencies
        red = cb_reduce(frame_with_internal(996), 30)
        assert red.cut_splits_cluster
        assert red.truncation_frequency == pytest.approx(red.retained_frequencies[-1], rel=1e-8)
        assert not cb_reduce(frame_with_internal(996), 31).cut_splits_cluster
        # the kept member is the same whichever mode count the cluster is reached from
        phi, _ = fixed_interface_modes(frame_with_internal(996), 30)
        assert np.abs(phi - red.retained_modes).max() <= 1e-9 * np.abs(phi).max()

    @pytest.mark.parametrize("path", ["sparse", "dense"])
    def test_singular_internal_stiffness_raises(self, monkeypatch, path):
        frame = frame_with_internal(dynsub.reduction._SPARSE_MIN_DOFS + 1)
        stiffness = dense(frame.stiffness)
        stiffness[10, :] = stiffness[:, 10] = 0.0  # an internal DOF held by nothing
        singular = frame_with(frame, stiffness=stiffness)
        if path == "dense":
            singular = take_dense_path(monkeypatch, singular)
        for call in (lambda: cb_reduce(singular, 30), lambda: constraint_modes(singular)):
            with pytest.raises(ReductionError, match=r"internal stiffness block is singular \(rank"):
                call()

    def test_sparse_singular_internal_stiffness_message_builds_no_dense_block(self, monkeypatch):
        # the rank is an SVD of the dense block: 80 GB at 1e5 DOFs
        frame = frame_with_internal(dynsub.reduction._SPARSE_MIN_DOFS + 1)
        stiffness = dense(frame.stiffness)
        stiffness[10, :] = stiffness[:, 10] = 0.0
        singular = frame_with(frame, stiffness=stiffness)

        def no_rank(*args, **kwargs):
            raise AssertionError("matrix_rank called on the sparse path")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
        n_i = len(frame.internal_dofs)
        for call in (lambda: cb_reduce(singular, 30), lambda: constraint_modes(singular)):
            with pytest.raises(ReductionError, match=rf"singular \(rank deficient, {n_i} x {n_i}\)"):
                call()

    @pytest.mark.parametrize("path", ["sparse", "dense"])
    def test_indefinite_internal_mass_raises(self, monkeypatch, path):
        frame = frame_with_internal(dynsub.reduction._SPARSE_MIN_DOFS + 1)
        mass = dense(frame.mass)
        # positive diagonal, but the block [[m, 2m], [2m, m]] of DOFs 10, 11 is indefinite
        mass[10, 11] = mass[11, 10] = 2 * mass[10, 10]
        indefinite = frame_with(frame, mass=mass)
        if path == "dense":
            indefinite = take_dense_path(monkeypatch, indefinite)
        with pytest.raises(ReductionError, match="internal mass matrix is not positive definite"):
            cb_reduce(indefinite, 30)


class TestBasisHeldOnce:
    """The transform is the one copy of the basis; the modes are views of its blocks."""

    @pytest.mark.parametrize("n", [200, 1000])  # the dense and the sparse path
    def test_modes_are_views_of_the_transform(self, counted_eigsh, n):
        red = cb_reduce(frame_substructure(n=n), 30)
        assert bool(counted_eigsh) == (n >= dynsub.reduction._SPARSE_MIN_DOFS)
        assert np.shares_memory(red.retained_modes, red.transform)
        assert np.shares_memory(red.constraint_modes, red.transform)
        n_i = len(red.internal_dofs)
        assert red.retained_modes.shape == (n_i, 30) and red.constraint_modes.shape == (n_i, 4)
        names = [field.name for field in dataclasses.fields(red)]
        assert len(names) == 8 and "retained_modes" not in names and "constraint_modes" not in names

    @pytest.mark.parametrize("path", ["sparse", "dense"])
    def test_indefinite_internal_stiffness_raises(self, monkeypatch, path):
        # negative springs, as a frame of k = -1e4 has: every eigenvalue w^2 is negative
        frame = frame_with_internal(dynsub.reduction._SPARSE_MIN_DOFS + 1)
        indefinite = frame_with(frame, stiffness=-frame.stiffness)
        if path == "dense":
            indefinite = take_dense_path(monkeypatch, indefinite)
        for call in (lambda: cb_reduce(indefinite, 30), lambda: fixed_interface_modes(indefinite, 30)):
            with pytest.raises(ReductionError, match=r"internal stiffness block is indefinite: .* is -\d"):
                call()


def frame_with_a_negative_pivot():
    """The 1000-DOF frame with 1e6 taken from ``K[500, 500]``: ``K_ii`` has one negative eigenvalue, far from 0."""
    frame = frame_substructure(n=1000)
    stiffness = dense(frame.stiffness)
    stiffness[500, 500] -= 1e6
    return frame_with(frame, stiffness=scipy.sparse.csr_array(stiffness))


class TestOneFactorizationPerBlock:
    """``K_ii`` and ``M_ii`` are factorized once each, and their pivots decide positive definiteness."""

    @pytest.mark.parametrize("path", ["sparse", "dense"])
    def test_an_eigenvalue_far_from_zero_is_seen(self, monkeypatch, path):
        # shift-invert Lanczos about 0 never sees it: the sparse path reduced this frame
        # to a first mode of 0.369 Hz
        indefinite = frame_with_a_negative_pivot()
        if path == "dense":
            indefinite = take_dense_path(monkeypatch, indefinite)
        calls = (lambda: cb_reduce(indefinite, 30), lambda: fixed_interface_modes(indefinite, 30),
                 lambda: constraint_modes(indefinite))
        for call in calls:
            with pytest.raises(ReductionError, match=r"internal stiffness block is indefinite: .* 500 is -\d"):
                call()

    @pytest.mark.parametrize("n", [200, 1000])  # the dense and the sparse path
    def test_each_block_is_factorized_once_per_reduce(self, monkeypatch, n):
        blocks = []
        original = _InternalProblem.factorize

        def counted(problem, name):
            blocks.append((name, problem.sparse))
            return original(problem, name)

        monkeypatch.setattr(_InternalProblem, "factorize", counted)
        cb_reduce(frame_substructure(n=n), 30)
        sparse = n >= dynsub.reduction._SPARSE_MIN_DOFS
        assert sorted(blocks) == [("mass", sparse), ("stiffness", sparse)]

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("n_modes", [2.5, True, "3"])
    def test_mode_count_must_be_an_integer(self, n, n_modes):
        # 2.5 ended in ARPACK's SystemError on the sparse path, True in a TypeError
        for call in (cb_reduce, fixed_interface_modes):
            with pytest.raises(ReductionError, match="'n_modes' must be an integer"):
                call(frame_substructure(n=n), n_modes)


class TestCanonicalModes:
    """One basis per eigenspace, whatever basis of a repeated-frequency cluster the solver returned."""

    @staticmethod
    def desk_modes():
        frame = frame_substructure()
        phi, freqs = fixed_interface_modes(frame, 20)
        return phi, freqs, internal_mass(frame)

    @settings(max_examples=30)
    @given(pair=st.integers(0, 3), angle=st.floats(0.0, 2 * np.pi), reflect=st.booleans(),
           signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=20, max_size=20),
           scale=st.floats(0.5, 2.0))
    def test_rotating_a_cluster_returns_the_same_modes(self, pair, angle, reflect, signs, scale):
        phi, freqs, mass = self.desk_modes()
        second = np.flatnonzero(~_cluster_starts(freqs))[pair]
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
        mixed = phi * np.array(signs) * scale
        mixed[:, second - 1:second + 1] = mixed[:, second - 1:second + 1] @ rotation
        expected = _canonical_modes(phi, freqs, mass)
        assert np.abs(_canonical_modes(mixed, freqs, mass) - expected).max() <= 1e-10 * np.abs(expected).max()

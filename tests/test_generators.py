"""Model builders: the chain matrices behind every frame, dense and CSR."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg  # imported before any tracing, so its module objects are not counted

import dynsub.models
from dynsub.generators import (
    SUSPENSION_DEFAULTS, chain_matrices, frame_analog, frame_substructure, suspension_substructure, wheel_inputs,
)
from dynsub.io import save_system
from dynsub.models import ModelError, dense
from dynsub.monolithic import assemble_global
from dynsub.reduction import reduce as cb_reduce
from dynsub.solver import CoupledSystem


def loop_chain(n, m, k, c, grounded):
    """The chain assembled spring by spring, as the textbook writes it."""
    mass = np.eye(n) * m
    stiffness = np.zeros((n, n))
    damping = np.zeros((n, n))
    for i in range(n - 1):
        for mat, val in ((stiffness, k), (damping, c)):
            mat[i, i] += val
            mat[i + 1, i + 1] += val
            mat[i, i + 1] -= val
            mat[i + 1, i] -= val
    if grounded:
        stiffness[0, 0] += k
        damping[0, 0] += c
    return mass, damping, stiffness


@pytest.mark.parametrize("n", [1, 2, 5, 200, 450])
@pytest.mark.parametrize("grounded", [True, False])
@pytest.mark.parametrize("m, k, c", [(0.05, 2.5e5, 0.3), (1.0, 1.0, 0.0), (2, 3, 0), (0.1, 1e-7, 1.3e4)])
def test_chain_equals_the_spring_loop_bit_for_bit(n, grounded, m, k, c):
    # bytes, not values: a -0.0 where the loop writes 0.0 would also differ
    for got, want in zip(chain_matrices(n, m, k, c, grounded), loop_chain(n, m, k, c, grounded)):
        assert isinstance(got, np.ndarray) == (n < 400)  # CSR from 400 masses on
        assert dense(got).tobytes() == want.tobytes()


class TestSparseFrames:
    """Frames of 400 DOFs or more are built as CSR and stay sparse on the experiment's path."""

    @pytest.mark.parametrize("n", [400, 1000])
    def test_csr_frame_holds_the_dense_builders_entries(self, monkeypatch, n):
        sparse = frame_substructure(n=n, k=2.5e5)
        monkeypatch.setattr(dynsub.models, "_SPARSE_MIN_DOFS", n + 1)
        full = frame_substructure(n=n, k=2.5e5)
        assert sparse.sparse and not full.sparse
        for name in ("mass", "damping", "stiffness"):
            assert dense(getattr(sparse, name)).tobytes() == getattr(full, name).tobytes(), name
            for got, want in zip(sparse.nonzeros[name], full.nonzeros[name]):
                assert np.array_equal(got, want) and got.dtype.kind == want.dtype.kind, name
            assert getattr(sparse, name).data.tobytes() == full.nonzeros[name][2].tobytes(), name

    def test_desk_path_allocates_no_dense_frame_matrix(self, tmp_path):
        # generate, write, reduce and assemble the sparse reference of the
        # experiment's frame; one dense 1000 x 1000 float64 array is 8 MB
        tracemalloc.start()
        try:
            subs, topology = frame_analog(n=1000, k=2.5e5)
            save_system(tmp_path / "model.json", CoupledSystem(substructures=subs, topology=topology))
            cb_reduce(subs["frame"], 30)
            assemble_global(subs, topology, sparse=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


class TestParameters:
    """Each generator parameter meets the check that owns its rule."""

    def test_coefficients_override_the_defaults(self):
        susp = suspension_substructure(n_elements=3, coefficients={"k1": 30})
        assert [(e.k1, e.c3) for e in susp.elements] == [(30, SUSPENSION_DEFAULTS["c3"])] * 3

    def test_coefficients_may_not_set_the_channel(self):
        # an element holds no channel: the input map routes them (wheel_inputs)
        with pytest.raises(ModelError, match="'base_excitation_channel'"):
            suspension_substructure(coefficients={"base_excitation_channel": 2})

    def test_the_frame_boundary_keeps_its_order_and_the_rest_is_internal(self):
        frame = frame_substructure(n=40, boundary_dofs=(39, 9, 19, 29))
        assert frame.boundary_dofs == (39, 9, 19, 29)
        assert frame.internal_dofs == tuple(i for i in range(40) if i not in (9, 19, 29, 39))

    def test_one_suspension_per_frame_boundary_dof(self):
        subs, topology = frame_analog(n=40, boundary_dofs=(39, 9, 19))
        assert subs["suspension"].n_elements == 3
        assert [(frame[1], susp[1]) for frame, susp in topology.constraints] == [(39, 3), (9, 4), (19, 5)]
        assert wheel_inputs(subs["suspension"]) == {"suspension": {0: 0, 1: 1, 2: 2}}  # channel i onto wheel i
        with pytest.raises(ModelError, match="'boundary_dofs'"):
            frame_analog(n=40, boundary_dofs=())

    @pytest.mark.parametrize("heavy_every, heavy", [(0, []), (8, [0, 8, 16, 24, 32]), (50, [0])])
    def test_every_heavy_every_th_mass_is_heavy(self, heavy_every, heavy):
        masses = np.diag(frame_substructure(n=40, heavy_every=heavy_every).mass)
        assert np.flatnonzero(masses == 2.0).tolist() == heavy and np.all(masses[masses != 2.0] == 0.05)

import numpy as np
import pytest

from oracles import (evaluate_velocities, isotropic_stiffness, lame_parameters,
                     velocities_from_lame)
from tunnelfwi.material import (AmbientProperties, InvalidMaterialError,
                                ModelVector, clamp_to_valid)
from tunnelfwi.mesh import TunnelGeometry, build_tunnel_mesh


def box_mesh(w=4, d=2):
    return build_tunnel_mesh(TunnelGeometry(w, d, 0, d, 0, 0, 1))


def test_homogeneous_evaluation():
    mesh = box_mesh()
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    rng = np.random.default_rng(7)
    W, H = mesh.extent
    for _ in range(20):
        p = (rng.uniform(0, W), rng.uniform(0, H))
        vp, vs = evaluate_velocities(model, mesh, p)
        assert vp == pytest.approx(4000.0, abs=1e-9)
        assert vs == pytest.approx(2400.0, abs=1e-9)


def test_nodal_interpolation_property():
    mesh = box_mesh()
    rng = np.random.default_rng(3)
    vals = np.concatenate([rng.uniform(3500, 4500, mesh.n_nodes),
                           rng.uniform(2000, 2400, mesh.n_nodes)])
    model = ModelVector(vals)
    for k in range(mesh.n_nodes):
        vp, vs = evaluate_velocities(model, mesh, tuple(mesh.nodes[k]))
        assert vp == pytest.approx(model.vp[k], rel=1e-12)
        assert vs == pytest.approx(model.vs[k], rel=1e-12)


def test_edge_midpoint_average():
    mesh = box_mesh()
    vals = np.concatenate([np.full(mesh.n_nodes, 4000.0),
                           np.full(mesh.n_nodes, 2000.0)])
    # nodes 0 and 1 sit at (0,0) and (1,0)
    vals[0], vals[1] = 4000.0, 5000.0
    model = ModelVector(vals)
    vp, _ = evaluate_velocities(model, mesh, (0.5, 0.0))
    assert vp == pytest.approx(4500.0, rel=1e-12)


def test_evaluation_is_linear_in_model():
    mesh = box_mesh()
    rng = np.random.default_rng(11)
    a = rng.uniform(3000, 5000, 2 * mesh.n_nodes)
    b = rng.uniform(3000, 5000, 2 * mesh.n_nodes)
    p = (1.7, 2.3)
    va = evaluate_velocities(ModelVector(a), mesh, p)
    vb = evaluate_velocities(ModelVector(b), mesh, p)
    vab = evaluate_velocities(ModelVector(0.25 * a + 0.75 * b), mesh, p)
    assert vab[0] == pytest.approx(0.25 * va[0] + 0.75 * vb[0], rel=1e-12)
    assert vab[1] == pytest.approx(0.25 * va[1] + 0.75 * vb[1], rel=1e-12)


def test_lame_parameters_reference_values():
    lam, mu = lame_parameters(4000.0, 2400.0, 2500.0)
    assert mu == pytest.approx(1.44e10, rel=1e-12)
    assert lam == pytest.approx(1.12e10, rel=1e-12)


def test_lame_limit_small_shear():
    lam, mu = lame_parameters(1.0, 1e-9, 1.0)
    assert mu == pytest.approx(0.0, abs=1e-17)
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_lame_roundtrip():
    lam, mu = lame_parameters(4000.0, 2400.0, 2500.0)
    vp, vs = velocities_from_lame(lam, mu, 2500.0)
    assert vp == pytest.approx(4000.0, rel=1e-12)
    assert vs == pytest.approx(2400.0, rel=1e-12)


def test_lame_invalid_material():
    with pytest.raises(InvalidMaterialError):
        lame_parameters(3000.0, 2400.0, 2500.0)  # vp < sqrt(2) vs


@pytest.mark.parametrize("props", [(np.nan, 2400.0, 2500.0), (4000.0, np.nan, 2500.0),
                                   (4000.0, 2400.0, np.inf)])
def test_ambient_properties_reject_nan_and_inf(props):
    AmbientProperties(4000.0, 2400.0, 2500.0)
    with pytest.raises(InvalidMaterialError, match="positive and finite"):
        AmbientProperties(*props)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("block", ["vp", "vs"])
def test_model_vector_rejects_a_nan_or_inf_node(block, value):
    model = ModelVector.homogeneous(box_mesh(), 4000.0, 2400.0)
    model.validate()
    values = model.values.copy()
    values[3 if block == "vp" else model.n_nodes + 3] = value
    with pytest.raises(InvalidMaterialError, match="positive and finite"):
        ModelVector(values).validate()


def test_stiffness_reference_entries():
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    assert C[0, 0, 0, 0] == pytest.approx(4.0e10, rel=1e-12)
    assert C[0, 0, 1, 1] == pytest.approx(1.12e10, rel=1e-12)
    assert C[0, 1, 0, 1] == pytest.approx(1.44e10, rel=1e-12)


def test_stiffness_symmetries():
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert C[i, j, k, l] == C[k, l, i, j]  # major
                    assert C[i, j, k, l] == C[j, i, k, l]  # minor


def test_stiffness_lambda_zero_boundary():
    vs = 2000.0
    C = isotropic_stiffness(np.sqrt(2.0) * vs, vs, 2500.0)
    assert C[0, 0, 1, 1] == pytest.approx(0.0, abs=1e-3)


def test_stiffness_rotation_invariance():
    # sigma(R eps R^T) = R sigma(eps) R^T for isotropic C
    C = isotropic_stiffness(4000.0, 2400.0, 2500.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        eps = rng.normal(size=(2, 2))
        eps = 0.5 * (eps + eps.T)
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        sig = np.einsum("ijkl,kl->ij", C, eps)
        eps_rot = R @ eps @ R.T
        sig_rot = np.einsum("ijkl,kl->ij", C, eps_rot)
        np.testing.assert_allclose(sig_rot, R @ sig @ R.T, rtol=1e-10, atol=1e-2)


def test_model_vector_validation():
    mesh = box_mesh()
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    model.validate()
    bad = model.values.copy()
    bad[0] = 3000.0  # vp < sqrt(2) * 2400
    with pytest.raises(InvalidMaterialError, match="node 0"):
        ModelVector(bad).validate()
    with pytest.raises(InvalidMaterialError):
        ModelVector(-model.values).validate()


def test_clamp_restores_validity():
    mesh = box_mesh()
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    bad = model.values.copy()
    bad[mesh.n_nodes:] = 3500.0  # vs too close to vp
    clamped = ModelVector(clamp_to_valid(bad))
    clamped.validate()
    # vp block untouched
    np.testing.assert_array_equal(clamped.vp, model.vp)


def test_ambient_validation():
    AmbientProperties(4000.0, 2400.0, 2500.0)
    with pytest.raises(InvalidMaterialError):
        AmbientProperties(3000.0, 2400.0, 2500.0)
    with pytest.raises(InvalidMaterialError):
        AmbientProperties(4000.0, -1.0, 2500.0)


def test_point_in_void_rejected():
    mesh = build_tunnel_mesh(TunnelGeometry(20, 4, 2, 4, 5, 0, 1))
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    with pytest.raises(Exception):
        evaluate_velocities(model, mesh, (2.0, 5.0))

"""Spectral boundary-layer mesh construction."""

import numpy as np
import pytest

from wg_hp.problem import MuPair, Regime, compute_mu, model_problem
from wg_hp.slmesh import Mesh, MeshDegeneracyError, _guarded, build_sbl_mesh, user_mesh

RCD = Regime.REACTION_CONVECTION_DIFFUSION
RD = Regime.REACTION_DIFFUSION
CD = Regime.CONVECTION_DIFFUSION


def test_rcd_node_formula():
    mesh = build_sbl_mesh(RCD, kappa=1.0, p=4, mu=MuPair(100.0, 1e4))
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.04, 0.9996, 1.0], atol=1e-15)


def test_rd_node_formula():
    # reaction-diffusion takes kappa*p/mu0 and kappa*p/mu1, as RCD does
    mesh = build_sbl_mesh(RD, kappa=1.0, p=2, mu=MuPair(100.0, 400.0))
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.02, 0.995, 1.0], atol=1e-15)
    # in the pure reaction-diffusion limit both widths are kappa*p*sqrt(eps1/r(0)),
    # r = 1 + x being least at x = 0
    mesh = build_sbl_mesh(RD, kappa=1.0, p=2, mu=compute_mu(model_problem(1e-8, 1e-8)))
    np.testing.assert_allclose(mesh.widths[[0, 2]], 2 * np.sqrt(1e-8 / 1.0), rtol=1e-3)


def test_cd_node_formula():
    mesh = build_sbl_mesh(CD, kappa=1.0, p=4, eps1=1e-3)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.996, 1.0], atol=1e-15)


CAPPED = [
    (RD, dict(p=8, mu=MuPair(2.0, 30.0)), [0.0, 0.25, 0.75, 1.0]),  # widths 4, 0.27 > 1/4
    (RCD, dict(p=4, mu=MuPair(2.0, 1e4)), [0.0, 0.25, 0.9996, 1.0]),  # w0 = 2, w1 = 4e-4
    (CD, dict(p=4, eps1=0.2), [0.0, 0.5, 1.0]),  # kappa*p*eps1 = 0.8 > 1/2
]


@pytest.mark.parametrize(
    "regime, params, nodes", CAPPED, ids=[regime.value for regime, _, _ in CAPPED]
)
def test_wide_layer_is_capped_and_the_other_kept(regime, params, nodes):
    # a layer element wider than the cap gets the cap's width; the mesh
    # keeps its shape, so a thin layer at the other end keeps its element
    mesh = build_sbl_mesh(regime, kappa=1.0, **params)
    np.testing.assert_allclose(mesh.nodes, nodes, rtol=0, atol=1e-15)


DEGENERATE = [
    pytest.param(RD, dict(p=1, mu=MuPair(1e14, 1e14)), "1e-14", id=RD.value),
    pytest.param(RCD, dict(p=4, mu=MuPair(100.0, 1e14)), "4e-14", id=RCD.value),
    pytest.param(CD, dict(p=4, eps1=1e-14), "4e-14", id=CD.value),
    # w0 = 2 is capped at 1/4; the thin layer at x = 1 still raises
    pytest.param(RCD, dict(p=4, mu=MuPair(2.0, 1e14)), "4e-14", id="rcd-other-layer-capped"),
]


@pytest.mark.parametrize("regime, params, width", DEGENERATE)
def test_degenerate_interior_node_raises(regime, params, width):
    # a layer width below the degeneracy tolerance: the mesh cannot resolve
    # the layer, and one element [0, 1] would ignore it without a word
    message = f"{regime.value} mesh: layer element width {width} is below 1e-12"
    with pytest.raises(MeshDegeneracyError, match=message):
        build_sbl_mesh(regime, kappa=1.0, **params)


def test_missing_parameters_raise():
    with pytest.raises(ValueError):
        build_sbl_mesh(RCD, kappa=1.0, p=4)
    with pytest.raises(ValueError):
        build_sbl_mesh(RD, kappa=1.0, p=4)
    with pytest.raises(ValueError):
        build_sbl_mesh(CD, kappa=1.0, p=4)


@pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
def test_bad_kappa_and_degree(kappa):
    for regime in Regime:
        with pytest.raises(ValueError, match="kappa must be finite and positive"):
            build_sbl_mesh(regime, kappa=kappa, p=4, mu=MuPair(1e3, 1e3), eps1=1e-4)
    with pytest.raises(ValueError):
        build_sbl_mesh(RD, kappa=1.0, p=0, eps1=1e-4)


def test_user_mesh_valid():
    mesh = user_mesh([0.0, 0.5, 1.0])
    assert mesh.n_elements == 2
    np.testing.assert_allclose(mesh.widths, [0.5, 0.5])
    assert mesh.element(1) == (0.5, 1.0)

    assert user_mesh([0.0, 1.0]).n_elements == 1


def test_user_mesh_invalid():
    with pytest.raises(ValueError):
        user_mesh([0.0, 0.5, 0.5, 1.0])  # repeated node
    with pytest.raises(ValueError):
        user_mesh([0.1, 0.5, 1.0])  # does not start at 0
    with pytest.raises(ValueError):
        user_mesh([0.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("nodes, message", [
    ([NAN, 1.0], "mesh must span"),
    ([0.0, NAN], "mesh must span"),
    ([-INF, 1.0], "mesh must span"),
    ([0.0, INF], "mesh must span"),
    ([0.0, NAN, 1.0], "strictly increasing"),
    ([0.0, INF, 1.0], "strictly increasing"),
    ([0.0, -INF, 1.0], "strictly increasing"),
    ([0.0, 0.7, 0.3, 1.0], "strictly increasing"),
    ([[0.0, 1.0]], "at least two nodes"),
    ([1.0], "at least two nodes"),
])
def test_user_mesh_rejects_nan_inf_and_disorder(nodes, message):
    with pytest.raises(ValueError, match=message):
        user_mesh(nodes)


@pytest.mark.parametrize("nodes, error", [
    ([0.0, 1e-13, 0.5, 1.0], MeshDegeneracyError),
    ([0.0, 0.5, 1.0 - 1e-13, 1.0], MeshDegeneracyError),
    ([0.0, INF, 1.0], MeshDegeneracyError),
    ([0.0, -INF, 1.0], MeshDegeneracyError),
    # NaN passes the degeneracy test, and the mesh itself rejects it
    ([0.0, NAN, 0.5, 1.0], ValueError),
])
def test_guarded_nodes_degenerate_or_invalid(nodes, error):
    with pytest.raises(error):
        _guarded(RD, nodes, 1e-13)


def test_mesh_nodes_immutable():
    mesh = Mesh(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        mesh.nodes[1] = 0.7


def test_mesh_widths_computed_once_and_read_only():
    nodes = np.array([0.0, 1e-3, 0.7, 1.0])
    mesh = Mesh(nodes)
    assert mesh.widths is mesh.widths
    assert mesh.widths.tobytes() == np.diff(nodes).tobytes()
    assert not mesh.widths.flags.writeable
    with pytest.raises(ValueError):
        mesh.widths[0] = 0.5

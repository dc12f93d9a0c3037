"""Spectral boundary-layer meshes.

The mesh is minimal.  Convection-diffusion gets [0, 1 - w, 1] with
w = kappa*p*eps1 capped at 1/2.  Every other pair gets [0, w0, 1 - w1, 1]
with w0 = kappa*p/mu0 and w1 = kappa*p/mu1 capped at 1/4: the characteristic
roots tend to sqrt(r/eps1) as eps2 -> 0, so they give the reaction-diffusion
widths too.  A capped layer gets a wide element; the other keeps its own.
A layer element thinner than DEGENERACY_TOL raises MeshDegeneracyError:
the mesh could not resolve that layer, and collapsing it to one element
would return an answer that silently ignores it.
"""

from __future__ import annotations

import numpy as np

from wg_hp._frozen import Frozen
from wg_hp.problem import MuPair, Regime

DEGENERACY_TOL = 1e-12


class Mesh(Frozen):
    """Ordered nodes x0 = 0 < ... < xN = 1."""

    _fields = ("nodes",)

    def __init__(self, nodes: np.ndarray):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("a mesh needs at least two nodes")
        # checked as Python floats: a few nodes, so numpy's per-call cost
        # would dominate; a < b is b - a > 0 for doubles, NaN failing both
        values = nodes.tolist()
        if values[0] != 0.0 or values[-1] != 1.0:
            raise ValueError("mesh must span [0,1]")
        if not all(a < b for a, b in zip(values, values[1:])):
            raise ValueError("mesh nodes must be strictly increasing")
        widths = np.diff(nodes)
        nodes.setflags(write=False)
        widths.setflags(write=False)
        # the widths computed once: assembly and the norms read them many times
        vars(self).update(nodes=nodes, _widths=widths)

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def widths(self) -> np.ndarray:
        """Element widths, shared and read-only."""
        return self._widths

    def element(self, j: int) -> tuple[float, float]:
        """Endpoints of element j (0-based)."""
        return float(self.nodes[j]), float(self.nodes[j + 1])


def user_mesh(nodes) -> Mesh:
    """Wrap an arbitrary node list, validating it."""
    return Mesh(np.asarray(nodes, dtype=float))


class MeshDegeneracyError(Exception):
    """A layer element is too thin for the mesh to resolve its layer."""


def _guarded(regime: Regime, nodes, width: float) -> Mesh:
    """The mesh on nodes, whose thinnest layer element is width wide;
    raises if an interior node (numerically) hits an endpoint."""
    nodes = np.array(nodes, dtype=float)
    if any(x < DEGENERACY_TOL or x > 1.0 - DEGENERACY_TOL for x in nodes.tolist()[1:-1]):
        raise MeshDegeneracyError(
            f"{regime.value} mesh: layer element width {width:.3g} is below "
            f"{DEGENERACY_TOL:g}, too thin to resolve the layer"
        )
    return Mesh(nodes)


def build_sbl_mesh(
    regime: Regime,
    kappa: float,
    p: int,
    mu: MuPair | None = None,
    eps1: float | None = None,
) -> Mesh:
    """Spectral boundary-layer mesh for the given regime.

    eps1 is required for the convection-diffusion regime, mu for the other
    two.  Raises MeshDegeneracyError when a layer element would be thinner
    than DEGENERACY_TOL.
    """
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be finite and positive, got {kappa!r}")
    if regime is Regime.CONVECTION_DIFFUSION:
        if eps1 is None:
            raise ValueError("eps1 is required in the convection-diffusion regime")
        w = min(kappa * p * eps1, 0.5)
        return _guarded(regime, [0.0, 1.0 - w, 1.0], w)
    if mu is None:
        raise ValueError("mu is required outside the convection-diffusion regime")
    w0 = min(kappa * p / mu.mu0, 0.25)
    w1 = min(kappa * p / mu.mu1, 0.25)
    return _guarded(regime, [0.0, w0, 1.0 - w1, 1.0], min(w0, w1))

"""Spectral boundary-layer meshes.

The mesh is minimal: at most three elements, with layer elements of width
kappa*p times the layer scale of the active regime.  A layer width is
capped at 1/4 on the three-element meshes and at 1/2 on the two-element
convection-diffusion mesh, so a layer that is no longer thin gets a wide
element while the other layer keeps its own.
A layer element thinner than DEGENERACY_TOL raises MeshDegeneracyError:
the mesh could not resolve that layer, and collapsing it to one element
would return an answer that silently ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wg_hp.problem import MuPair, Regime

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Ordered nodes x0 = 0 < ... < xN = 1."""

    nodes: np.ndarray = field(repr=True)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("a mesh needs at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh must span [0,1]")
        widths = np.diff(nodes)
        if not np.all(widths > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        # computed once: assembly and the norms read the widths many times
        object.__setattr__(self, "_widths", widths)

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
    interior = np.asarray(nodes[1:-1])
    if np.any(interior < DEGENERACY_TOL) or np.any(interior > 1.0 - DEGENERACY_TOL):
        raise MeshDegeneracyError(
            f"{regime.value} mesh: layer element width {width:.3g} is below "
            f"{DEGENERACY_TOL:g}, too thin to resolve the layer"
        )
    return Mesh(np.asarray(nodes, dtype=float))


def build_sbl_mesh(
    regime: Regime,
    kappa: float,
    p: int,
    mu: MuPair | None = None,
    eps1: float | None = None,
) -> Mesh:
    """Spectral boundary-layer mesh for the given regime.

    mu is required for the reaction-convection-diffusion regime, eps1 for
    the other two.  Raises MeshDegeneracyError when a layer element would
    be thinner than DEGENERACY_TOL.
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
    if regime is Regime.REACTION_CONVECTION_DIFFUSION:
        if mu is None:
            raise ValueError("mu is required in the reaction-convection-diffusion regime")
        w0 = min(kappa * p / mu.mu0, 0.25)
        w1 = min(kappa * p / mu.mu1, 0.25)
    elif regime is Regime.REACTION_DIFFUSION:
        if eps1 is None:
            raise ValueError("eps1 is required in the reaction-diffusion regime")
        w0 = w1 = min(kappa * p * np.sqrt(eps1), 0.25)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return _guarded(regime, [0.0, w0, 1.0 - w1, 1.0], min(w0, w1))

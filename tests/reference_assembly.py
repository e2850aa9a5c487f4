"""Per-block P1 assembly, the reference for the stacked assembly of svrb.

Every matrix is assembled on its own from element geometry recomputed for
it, through a COO matrix converted to CSR, and every load vector by
scattering element contributions with ``np.add.at``: the loop that
:class:`svrb.fem.Stencil` replaces with one shared structure and one
weighted ``bincount`` per matrix.
"""

import numpy as np
import scipy.sparse as sp

from svrb import fem


def tri_geometry(mesh):
    """Per-triangle areas and constant P1 basis gradients ``(T, 3, 2)``."""
    p = mesh.nodes[mesh.triangles]
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    areas = 0.5 * (e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))
    rot = lambda e: np.column_stack([-e[:, 1], e[:, 0]])
    grads = np.stack([rot(e0), rot(e1), rot(e2)], axis=1) / (2.0 * areas)[:, None, None]
    return areas, grads


def _full_matrix(mesh, vals):
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nn = mesh.n_nodes
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()


def weighted_stiffness(mesh, tri_integrals):
    """Stiffness matrix on all nodes for a scalar coefficient with
    per-triangle integrals ``tri_integrals``."""
    _, grads = tri_geometry(mesh)
    gg = np.einsum("tid,tjd->tij", grads, grads)
    return _full_matrix(mesh, tri_integrals[:, None, None] * gg)


def mass(mesh):
    """Exact P1 mass matrix on all nodes."""
    areas, _ = tri_geometry(mesh)
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float) / 12.0
    return _full_matrix(mesh, areas[:, None, None] * local)


def load(mesh, rule, f_at_quad):
    """Load vector on all nodes for a source sampled at the quadrature points."""
    bary, w = fem._QUAD_RULES[rule]
    areas, _ = tri_geometry(mesh)
    fq = f_at_quad.reshape(mesh.n_triangles, len(w))
    contrib = np.einsum("tq,q,qi->ti", fq, w, bary) * areas[:, None]
    vec = np.zeros(mesh.n_nodes)
    np.add.at(vec, mesh.triangles.ravel(), contrib.ravel())
    return vec


def reference_arrays(case, free):
    """Stiffness blocks, load blocks and Gram matrix of ``case``, one at a
    time, restricted to the grid nodes ``free`` in the order given."""
    mesh = fem.build_mesh(case.n)
    areas, _ = tri_geometry(mesh)
    qpts, qw = fem.quadrature_points(mesh, case.quad_rule, areas)
    n_q = len(fem._QUAD_RULES[case.quad_rule][1])
    blocks = []
    for term in case.diffusion:
        tri_int = (term.field(qpts) * qw).reshape(mesh.n_triangles, n_q).sum(axis=1)
        blocks.append(weighted_stiffness(mesh, tri_int)[free][:, free])
    loads = [load(mesh, case.quad_rule, term.field(qpts))[free] for term in case.load]
    gram = (weighted_stiffness(mesh, areas) + mass(mesh))[free][:, free]
    return blocks, loads, gram

"""Coreduction: shrink a chain complex without changing its integer homology.

Mrozek & Batko, "Coreduction homology algorithm", DCG 2009; Kaczynski,
Mischaikow & Mrozek, *Computational Homology*, 2004.  Plain Python over
the exact boundary operators, so a Smith normal form need only see the
small residual complex.
"""

from __future__ import annotations

from collections import deque

from .chains import ComplexMatrices, IntSparseMatrix

__all__ = ["coreduce"]


def coreduce(cm: ComplexMatrices) -> tuple:
    """Return (starts, live, residual) for the coreduced complex of cm.

    The lowest live vertex of each component untouched so far is removed,
    which splits off one copy of Z in degree 0; then every pair (cell,
    face) in which the face is the cell's only live face and its
    coefficient is +-1 is removed, with the cofaces of removed cells
    queued first in, first out.  Such a pair needs no boundary correction,
    so the residual boundary is the restriction of the boundary to the
    live cells and has the same homology in every degree, degree 0 up to
    the ``starts`` removed vertices.  The cascade from one vertex removes
    every vertex of its component, so each start is a new component.
    ``live[p]`` lists the ascending ids of the degree-p cells left and
    ``residual[p]`` (p = 1..n) is the boundary among them.
    """
    n = cm.complex_dim
    coeffs = [None] + [cm.boundary[p].entries for p in range(1, n + 1)]
    faces = [None] + [[[] for _ in range(cm.counts[p])] for p in range(1, n + 1)]
    cofaces = [[[] for _ in range(cm.counts[p])] for p in range(n)] + [None]
    for p in range(1, n + 1):
        fp, cp = faces[p], cofaces[p - 1]
        for r, c in coeffs[p]:
            fp[c].append(r)
            cp[r].append(c)
    alive = [[True] * cm.counts[p] for p in range(n + 1)]
    queue = deque()  # (p, list of degree-p cells), in removal order
    starts = 0
    for vertex in range(cm.counts[0]):
        if not alive[0][vertex]:
            continue
        starts += 1
        alive[0][vertex] = False
        if n:
            queue.append((1, cofaces[0][vertex]))
        while queue:
            p, cells = queue.popleft()
            here, below, up, down = alive[p], alive[p - 1], cofaces[p], cofaces[p - 1]
            for cell in cells:
                if not here[cell]:
                    continue
                live_faces = [f for f in faces[p][cell] if below[f]]
                if len(live_faces) == 1 and abs(coeffs[p][live_faces[0], cell]) == 1:
                    face = live_faces[0]
                    here[cell] = below[face] = False
                    if up:
                        queue.append((p + 1, up[cell]))
                    queue.append((p, down[face]))
    live = [[i for i, a in enumerate(alive[p]) if a] for p in range(n + 1)]
    residual = {}
    for p in range(1, n + 1):
        row_of = {f: i for i, f in enumerate(live[p - 1])}
        entries = {
            (row_of[f], j): coeffs[p][f, cell]
            for j, cell in enumerate(live[p])
            for f in faces[p][cell]
            if alive[p - 1][f]
        }
        residual[p] = IntSparseMatrix(len(live[p - 1]), len(live[p]), entries)
    return starts, live, residual

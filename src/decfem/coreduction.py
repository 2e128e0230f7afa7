"""Coreduction: shrink a chain complex without changing its integer homology.

Mrozek & Batko, "Coreduction homology algorithm", DCG 2009; Kaczynski,
Mischaikow & Mrozek, *Computational Homology*, 2004.  Plain Python over
the faces and cofaces read off the int64 CSR boundaries, so a Smith
normal form need only see the small residual complex.
"""

from __future__ import annotations

from collections import deque

from .chains import ComplexMatrices, IntSparseMatrix

__all__ = ["coreduce"]


def coreduce(cm: ComplexMatrices) -> tuple:
    """Return (starts, pairs, live, residual) for the coreduced complex of cm.

    The lowest live vertex of each component untouched so far is removed,
    which splits off one copy of Z in degree 0; then every pair (cell,
    face) in which the face is the cell's only live face and its
    coefficient is +-1 is removed, with the cofaces of removed cells
    queued first in, first out.  Such a pair needs no boundary correction,
    so the residual boundary is the restriction of the boundary to the
    live cells and has the same homology in every degree, degree 0 up to
    the removed vertices listed in ``starts``.  The cascade from one
    vertex removes every vertex of its component, so each start is a new
    component.  ``pairs[p]`` lists the removed pairs with a degree-p cell
    in removal order, flat as cell, face, cell, face, ...; ``live[p]``
    lists the ascending ids of the degree-p cells left and ``residual[p]``
    (p = 1..n) is the boundary among them.
    """
    n = cm.complex_dim
    # cols[p]: the CSC columns of the degree-p boundary (each a cell's p + 1
    # faces, rows ascending); rows[p]: its CSR rows (each a face's cofaces).
    # Flat lists leave the garbage collector no per-cell lists to scan.
    cols, rows = [None], [None]
    for p in range(1, n + 1):
        b = cm.boundary_csr(p)
        csc = b.tocsc()
        cols.append((csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()))
        rows.append((b.indptr.tolist(), b.indices.tolist()))

    def cofaces(p: int, cell: int) -> list:
        ptr, ids = rows[p + 1]
        return ids[ptr[cell] : ptr[cell + 1]]

    alive = [[True] * cm.counts[p] for p in range(n + 1)]
    queue = deque()  # (p, list of degree-p cells), in removal order
    starts = []
    pairs = [[] for _ in range(n + 1)]
    for vertex in range(cm.counts[0]):
        if not alive[0][vertex]:
            continue
        starts.append(vertex)
        alive[0][vertex] = False
        if n:
            queue.append((1, cofaces(0, vertex)))
        while queue:
            p, cells = queue.popleft()
            here, below = alive[p], alive[p - 1]
            ptr, faces, coeffs = cols[p]
            for cell in cells:
                if not here[cell]:
                    continue
                live_faces = [k for k in range(ptr[cell], ptr[cell + 1]) if below[faces[k]]]
                if len(live_faces) == 1 and abs(coeffs[live_faces[0]]) == 1:
                    face = faces[live_faces[0]]
                    here[cell] = below[face] = False
                    pairs[p] += (cell, face)
                    if p < n:
                        queue.append((p + 1, cofaces(p, cell)))
                    queue.append((p, cofaces(p - 1, face)))
    live = [[i for i, a in enumerate(alive[p]) if a] for p in range(n + 1)]
    # Read off the lists above: scipy fancy indexing would load code that no
    # other homology path runs, which costs more memory than it saves time.
    residual = {}
    for p in range(1, n + 1):
        row_of = {f: i for i, f in enumerate(live[p - 1])}
        ptr, faces, coeffs = cols[p]
        entries = {
            (row_of[faces[k]], j): coeffs[k]
            for j, cell in enumerate(live[p])
            for k in range(ptr[cell], ptr[cell + 1])
            if alive[p - 1][faces[k]]
        }
        residual[p] = IntSparseMatrix(len(live[p - 1]), len(live[p]), entries)
    return starts, pairs, live, residual

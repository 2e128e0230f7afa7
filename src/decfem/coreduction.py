"""Coreduction: shrink a chain complex without changing its integer homology.

Mrozek & Batko, "Coreduction homology algorithm", DCG 2009; Kaczynski,
Mischaikow & Mrozek, *Computational Homology*, 2004.  Plain Python over
the faces and cofaces read off the int64 CSR boundaries, so a Smith
normal form need only see the small residual complex.  A live-face
counter per cell stands in for a rescan of its faces; the queue and its
order are unchanged by it, and so are the removed pairs.
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

    Each cell of degree p >= 1 keeps a count of its live faces, p + 1 at
    the start and one less for each removed face (start vertex, paired
    cell or paired face), so a queued cell is a candidate when its count
    is 1 and only then are its faces scanned, to find that one live face.
    The count rejects exactly the cells a rescan of every face would
    reject, so the queue, its order and the pairs are those of the rescan.
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
    # counts[p][cell]: the live faces of a degree-p cell (p >= 1).
    counts = [None] + [[p + 1] * cm.counts[p] for p in range(1, n + 1)]
    queue = deque()  # (p, list of degree-p cells), in removal order
    starts = []
    pairs = [[] for _ in range(n + 1)]

    def removed(p: int, cell: int):
        """Each coface of a removed degree-p cell loses a live face and is queued."""
        if p < n:
            above, count = cofaces(p, cell), counts[p + 1]
            for coface in above:
                count[coface] -= 1
            queue.append((p + 1, above))

    for vertex in range(cm.counts[0]):
        if not alive[0][vertex]:
            continue
        starts.append(vertex)
        alive[0][vertex] = False
        removed(0, vertex)
        while queue:
            p, cells = queue.popleft()
            here, below, count = alive[p], alive[p - 1], counts[p]
            ptr, faces, coeffs = cols[p]
            for cell in cells:
                if count[cell] != 1 or not here[cell]:
                    continue
                k = ptr[cell]
                while not below[faces[k]]:
                    k += 1
                if abs(coeffs[k]) == 1:
                    face = faces[k]
                    here[cell] = below[face] = False
                    pairs[p] += (cell, face)
                    removed(p, cell)
                    removed(p - 1, face)
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

"""Exact integer homology: Smith normal form, Betti numbers, torsion, generators.

Everything here runs in arbitrary-precision integer arithmetic; no floating
point enters any rank or group computation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .chains import ComplexMatrices, IntSparseMatrix

__all__ = [
    "SnfResult",
    "smith_normal_form",
    "betti_numbers",
    "torsion_coefficients",
    "homology_generators",
]


@dataclass
class SnfResult:
    """Smith normal form U A V = D with unimodular U, V.

    ``diag`` lists the positive invariant factors d1 | d2 | ...; ``rank`` is
    their count.  ``left_inv`` is U^-1 and ``right`` is V, so A V = U^-1 D:
    kernel and image bases are read off without further elimination.
    """

    diag: list
    rank: int
    right: IntSparseMatrix
    left_inv: IntSparseMatrix


class _Eliminator:
    """Sparse integer elimination with transform tracking.

    The working matrix A is held twice, by rows and by columns (``stores``,
    each a dict of dicts, kept equal entry for entry), so a column
    operation on A is the row operation on A^T: ``_sub`` and ``swap`` serve
    both axes (0: rows, 1: columns).  U^-T and V^T are stored row-major so
    that every elementary matrix operation reduces to a row operation on
    the bookkeeping tables.

    Every operation records, per axis, the lines whose values or length it
    changed; ``_select_pivot`` re-keys only the cells of those rows and
    columns into ``heap``.  A fill-in is the one change left unrecorded:
    it lengthens a cross line k in which the pivot line t has an entry,
    and that entry leaves line t before ``_process_pivot`` returns only by
    an operation that records k (a sweep or swap of k, or a deletion in
    k).  A swap of line t itself is with a line the same round swept,
    whose entry in k is nonzero unless a deletion recorded k, because in
    each Euclidean round at most one of row t and column t has entries
    smaller than the pivot.
    """

    def __init__(self, mat: IntSparseMatrix):
        self.m, self.n = mat.rows, mat.cols
        self.rows: dict = {}
        self.cols: dict = {}
        for (r, c), v in mat.entries.items():
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, {})[r] = v
        self.stores = (self.rows, self.cols)
        self.heap: list = []
        self.dirty = (set(self.rows), set())
        self.UinvT = {i: {i: 1} for i in range(self.m)}
        self.VT = {j: {j: 1} for j in range(self.n)}

    @staticmethod
    def _axpy(table: dict, dst: int, src: int, q: int):
        """table row_dst -= q * row_src."""
        drow = table[dst]
        for c, v in table[src].items():
            nv = drow.get(c, 0) - q * v
            if nv:
                drow[c] = nv
            else:
                drow.pop(c, None)

    def _sub(self, axis: int, i: int, t: int, q: int):
        """Line i -= q * line t of A along ``axis``."""
        lines, cross = self.stores[axis], self.stores[1 - axis]
        dirty_cross = self.dirty[1 - axis]
        self.dirty[axis].add(i)
        line = lines.setdefault(i, {})
        for k, v in lines[t].items():
            # cross[k] holds line t's entry, so it exists and stays nonempty.
            nv = line.get(k, 0) - q * v
            if nv:
                line[k] = cross[k][i] = nv
            else:
                del line[k], cross[k][i]
                dirty_cross.add(k)
        if not line:
            del lines[i]

    def row_sub(self, i: int, t: int, q: int):
        """A row_i -= q * row_t, mirrored on U^-T (row t += q * row i)."""
        self._sub(0, i, t, q)
        self._axpy(self.UinvT, t, i, -q)

    def col_sub(self, j: int, t: int, q: int):
        """A col_j -= q * col_t, mirrored on V^T (row j -= q * row t)."""
        self._sub(1, j, t, q)
        self._axpy(self.VT, j, t, q)

    def swap(self, axis: int, i: int, t: int):
        """Exchange lines i and t of A along ``axis``, mirrored on U^-T or V^T."""
        if i == t:
            return
        lines, cross = self.stores[axis], self.stores[1 - axis]
        self.dirty[axis].update((i, t))
        li, lt = lines.pop(i, {}), lines.pop(t, {})
        if lt:
            lines[i] = lt
        if li:
            lines[t] = li
        for k in li.keys() | lt.keys():
            members = cross[k]
            vi, vt = members.pop(i, None), members.pop(t, None)
            if vi is not None:
                members[t] = vi
            if vt is not None:
                members[i] = vt
        table = (self.UinvT, self.VT)[axis]
        table[i], table[t] = table[t], table[i]

    def row_negate(self, i: int):
        row = self.rows[i]
        for c, v in row.items():
            row[c] = self.cols[c][i] = -v
        row = self.UinvT[i]
        for c, v in row.items():
            row[c] = -v


def _select_pivot(elim: _Eliminator, t: int):
    """Smallest |value|, then least fill-in estimate, then lowest (row, col).

    Each cell's key (|v|, fill, r, c) is packed into one int,
    ((|v| m n + fill) m + r) n + c, which orders like the tuple because
    fill = (row length - 1)(column length - 1) < m n.  The cells of rows and
    columns changed since the last call are pushed with their current keys,
    so every live cell's current key is in the heap; popping until the top
    key matches its cell's current key therefore yields the exact minimum.
    Rows and columns below t hold only finished pivots and are skipped.
    """
    m, n = elim.m, elim.n
    mn = m * n
    rows, cols, heap = elim.rows, elim.cols, elim.heap
    dirty_rows, dirty_cols = elim.dirty
    for r in dirty_rows:
        row = rows.get(r)
        if r < t or not row:
            continue
        rfill = len(row) - 1
        for c, v in row.items():
            heapq.heappush(heap, ((abs(v) * mn + rfill * (len(cols[c]) - 1)) * m + r) * n + c)
    for c in dirty_cols:
        col = cols.get(c)
        if c < t or not col:
            continue
        cfill = len(col) - 1
        for r in col.keys() - dirty_rows:
            heapq.heappush(heap, ((abs(col[r]) * mn + (len(rows[r]) - 1) * cfill) * m + r) * n + c)
    dirty_rows.clear()
    dirty_cols.clear()
    while heap:
        key = heapq.heappop(heap)
        rest, c = divmod(key, n)
        rest, r = divmod(rest, m)
        absv, fill = divmod(rest, mn)
        if r < t or c < t:
            continue
        row = rows.get(r)
        v = row.get(c) if row else None
        if v is not None and abs(v) == absv and (len(row) - 1) * (len(cols[c]) - 1) == fill:
            return r, c
    return None


def _process_pivot(elim: _Eliminator, t: int):
    while True:
        # Euclidean sweeps until the pivot divides its whole row and column:
        # row operations reduce column t, column operations row t.
        while True:
            if elim.rows[t][t] < 0:
                elim.row_negate(t)
            p = elim.rows[t][t]
            leftovers = []
            for axis, sub in enumerate((elim.row_sub, elim.col_sub)):
                line = elim.stores[1 - axis][t]
                for i in sorted(line):
                    q = line[i] // p
                    if i != t and q:
                        sub(i, t, q)
                leftovers += [(abs(v), axis, i) for i, v in line.items() if i != t]
            if not leftovers:
                break
            _, axis, i = min(leftovers)
            elim.swap(axis, i, t)
        # Invariant-factor condition: pivot divides the remaining submatrix,
        # whose rows are those after t (columns up to t hold only pivots).
        p = elim.rows[t][t]
        if p == 1:
            return
        violator = next(
            (r for r in sorted(elim.rows) if r > t and any(v % p for v in elim.rows[r].values())),
            None,
        )
        if violator is None:
            return
        elim.row_sub(t, violator, -1)


def smith_normal_form(mat: IntSparseMatrix) -> SnfResult:
    """Smith normal form over the integers.

    Returns positive invariant factors d1 | d2 | ..., the rank, and U^-1
    and V of unimodular U, V with U A V = diag(d1, ..., dr, 0, ...).
    The pivot rule is total-ordered, so identical inputs give identical
    outputs.
    """
    elim = _Eliminator(mat)
    diag: list = []
    t = 0
    limit = min(elim.m, elim.n)
    while t < limit:
        pivot = _select_pivot(elim, t)
        if pivot is None:
            break
        elim.swap(0, pivot[0], t)
        elim.swap(1, pivot[1], t)
        _process_pivot(elim, t)
        diag.append(elim.rows[t][t])
        t += 1
    rank = len(diag)

    def build(table: dict, size: int) -> IntSparseMatrix:
        # The transpose of a row-major table.  Rows leave the table as they
        # are copied, and the entries (nonzero, in range, unique) bypass the
        # constructor's checking copy, so no transform is held twice.
        out = IntSparseMatrix(size, size)
        for r in list(table):
            for c, v in table.pop(r).items():
                out.entries[(c, r)] = v
        return out

    return SnfResult(diag, rank, right=build(elim.VT, elim.n), left_inv=build(elim.UinvT, elim.m))


@dataclass
class _Reduction:
    """Integer homology read off the coreduced complex (``coreduce``).

    ``starts`` lists the vertices removed as roots of their components,
    ``pairs[p]`` the removed (cell, face) pairs with a degree-p cell, flat
    and in removal order, ``live[p]`` the degree-p cells of the residual
    complex and ``residual[p]`` (p = 1..n+1, the last one empty) its
    degree-p boundary.  ``complement[p]`` (p < n) holds the columns s.. of
    U^-1, where U residual[p+1] V = D is the Smith normal form of rank s,
    and ``top_cycles`` the columns s.. of V of residual[n] (n >= 1; see
    ``homology_generators``); ``betti`` and ``torsion`` hold every degree.
    """

    starts: list
    pairs: list
    live: list
    residual: dict
    complement: list
    top_cycles: IntSparseMatrix | None
    betti: list
    torsion: list


def _tail(mat: IntSparseMatrix, first: int) -> IntSparseMatrix:
    """Columns first..cols-1 of mat."""
    out = IntSparseMatrix(mat.rows, mat.cols - first)
    out.entries = {(r, c - first): v for (r, c), v in mat.entries.items() if c >= first}
    return out


def _reduction(cm: ComplexMatrices) -> _Reduction:
    """Homology from one Smith normal form per boundary of the coreduced
    complex, cached in ``cm._reduction``; invariant factors are unique, so
    they are those of the full boundaries."""
    if cm._reduction is None:
        # Imported on first use: runs that compute no homology do not load
        # it, which keeps their import memory as it was.
        from .coreduction import coreduce

        n = cm.complex_dim
        starts, pairs, live, residual = coreduce(cm)
        # There are no (n+1)-cells: the boundary above degree n is empty.
        residual[n + 1] = IntSparseMatrix(len(live[n]), 0)
        diags = [[]] * (n + 2)  # diags[q]: invariant factors of residual[q]
        complement = []
        for q in range(1, n + 1):
            snf = smith_normal_form(residual[q])
            diags[q] = snf.diag
            complement.append(_tail(snf.left_inv, snf.rank))
        # The last form is that of residual[n], whose kernel is the free
        # top-degree homology (degree 0 reads the starts instead).
        top_cycles = _tail(snf.right, snf.rank) if n else None
        betti = [len(live[p]) - len(diags[p]) - len(diags[p + 1]) for p in range(n + 1)]
        betti[0] += len(starts)
        torsion = [[d for d in diags[p + 1] if d > 1] for p in range(n + 1)]
        cm._reduction = _Reduction(
            starts, pairs, live, residual, complement, top_cycles, betti, torsion
        )
    return cm._reduction


def betti_numbers(cm: ComplexMatrices) -> list:
    """Betti numbers beta_0..beta_n from exact integer ranks."""
    return list(_reduction(cm).betti)


def torsion_coefficients(cm: ComplexMatrices, p: int) -> list:
    """Invariant factors > 1 of the degree-p homology group."""
    if not 0 <= p <= cm.complex_dim:
        raise ValueError(f"degree {p} outside 0..{cm.complex_dim}")
    return list(_reduction(cm).torsion[p])


def homology_generators(cm: ComplexMatrices, p: int) -> list:
    """Integer cycles whose classes form a basis of degree-p homology modulo torsion.

    Degree 0 has one vertex per component, the coreduction's ``starts``.
    In degree p >= 1 they come from the residual complex, split by the
    Smith normal form U d_{p+1} V = D of rank s that ``_reduction``
    computed.  The boundaries are the span of d_i w_i, i <= s, where
    w_i = U^-1 e_i.  As d_p d_{p+1} = 0 and C_{p-1} is free, d_p w_i = 0
    for i <= s.  So with T = [w_{s+1} ...] (``complement[p]``) the cycles
    split as Z_p = span(w_1..w_s) + T ker(d_p T), a direct sum, the first
    summand carries the torsion and the boundaries, and T ker(d_p T) is
    the free part of H_p.  One Smith normal form U' d_p T V' = D' gives
    that kernel as the columns of V' beyond its rank.  In the top degree
    there are no boundaries, T is the identity and that form is the one
    ``_reduction`` already took of d_n (``top_cycles``).  Each residual cycle
    c is lifted by walking the removed degree-p pairs (a, b) from last to
    first: c <- c - <dc, b> <da, b> a.

    Each step is the inclusion i(c) = c - <dc, b> / <da, b> a of the
    reduction pair (a, b).  As da = +-b in the current complex, the
    reduced boundary is exactly the restriction, so i is a chain homotopy
    equivalence.  Removing a start vertex v gives the relative complex
    (K, v), whose cycles of degree p >= 2 are those of K.  In degree 1 the
    boundary of a lifted chain lies on the starts, one per component, and
    sums to zero on each component since the augmentation kills every
    boundary, so it is zero.  The lifts are therefore exact cycles, and
    their classes form a basis of H_p modulo torsion.
    """
    if not 0 <= p <= cm.complex_dim:
        raise ValueError(f"degree {p} outside 0..{cm.complex_dim}")
    red = _reduction(cm)
    if p == 0:
        gens = []
        for vertex in red.starts:
            chain = [0] * cm.counts[0]
            chain[vertex] = 1
            gens.append(chain)
        return gens
    if p == cm.complex_dim:
        cycles = red.top_cycles
    else:
        complement = red.complement[p]
        snf = smith_normal_form(red.residual[p] @ complement)
        cycles = complement @ _tail(snf.right, snf.rank)
    live = red.live[p]
    gens = [[0] * cm.counts[p] for _ in range(cycles.cols)]
    for (i, j), v in cycles.entries.items():
        gens[j][live[i]] = v
    csr = cm.boundary_csr(p)
    ptr, cells, coeffs = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    pairs = red.pairs[p]
    for chain in gens:
        for k in range(len(pairs) - 2, -1, -2):
            b = pairs[k + 1]
            lo, hi = ptr[b], ptr[b + 1]
            dc = 0  # <dc, b>, over the cofaces of b on which c is nonzero
            for t in range(lo, hi):
                x = chain[cells[t]]
                if x:
                    dc += coeffs[t] * x
            if dc:
                a = pairs[k]
                chain[a] -= dc * coeffs[cells.index(a, lo, hi)]
    return gens

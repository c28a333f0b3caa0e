"""Exact linear-algebra oracle for Hom dimensions between representations.

A morphism between representations U and V is a tuple of matrices
``f_x`` with ``f_{e(a)} U_a = V_a f_{s(a)}`` for every arrow ``a``.  The
solution space dimension is computed by fraction-free integer elimination
(Bareiss), never floating point.  Each step divides exactly by the previous
pivot; a row whose entry in the pivot column is 0 is left as it is only
when the pivot equals the previous pivot, since only then is its update
``row * pivot // previous`` the identity.  The rank is the same over any
field of characteristic 0; a characteristic 32003 recomputation by the
same elimination, with updates reduced mod 32003, is available as a
sanity mode.

End(U) (``V is U``, sanity off) is first decided mod 32003: if the corank
there is 1, then dim End(U) = 1 exactly, since the identity makes the
corank over Q at least 1 and reducing mod p can only lower the rank.
Otherwise the rank over Q decides.  The modular elimination skips every
row with a zero below the pivot, so it is the faster of the two on the
sparse systems of string modules.
"""

from __future__ import annotations

from .quiver import QuiverError
from .words import Representation

SANITY_PRIME = 32003


def _intertwiner_matrix(U: Representation, V: Representation) -> tuple[list[list[int]], int]:
    """Rows of the linear system in the unknowns f_x[r][c], x in Q0."""
    q = U.quiver
    if V.quiver is not q and V.quiver.structure_key() != q.structure_key():
        raise QuiverError("representations live over different quivers")
    offset: dict[str, int] = {}
    nvars = 0
    for x in q.vertices:
        offset[x] = nvars
        nvars += V.dims[x] * U.dims[x]

    def var(x: str, r: int, c: int) -> int:
        return offset[x] + r * U.dims[x] + c

    rows: list[list[int]] = []
    for a in q.arrows:
        s, t = a.src, a.tgt
        Ua, Va = U.mats[a.name], V.mats[a.name]
        # (f_t U_a - V_a f_s)[r][c] = 0 for r < V.dims[t], c < U.dims[s]
        for r in range(V.dims[t]):
            for c in range(U.dims[s]):
                row = [0] * nvars
                for k in range(U.dims[t]):
                    if Ua[k][c]:
                        row[var(t, r, k)] += Ua[k][c]
                for k in range(V.dims[s]):
                    if Va[r][k]:
                        row[var(s, k, c)] -= Va[r][k]
                if any(row):
                    rows.append(row)
    return rows, nvars


def _rank_bareiss(rows: list[list[int]], p: int | None = None) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    Over the rationals (no ``p``) each update is divided exactly by the
    previous pivot (Bareiss).  Over GF(``p``) for a prime ``p`` the entries
    are reduced mod ``p`` and each update is reduced instead of divided; a
    row with a zero below the pivot is then always skipped, since its update
    would only scale it by the nonzero pivot.
    """
    if not rows:
        return 0
    m = [[x % p for x in row] for row in rows] if p else [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        mp = m[rank]
        piv = mp[col]
        for r in range(rank + 1, n_rows):
            mr = m[r]
            frr = mr[col]
            if frr == 0 and (p or piv == prev):
                continue  # over Q the update ``mr[c] * piv // prev`` is then the identity
            if p:
                for c in range(col, n_cols):
                    mr[c] = (mr[c] * piv - frr * mp[c]) % p
            else:
                for c in range(col, n_cols):
                    mr[c] = (mr[c] * piv - frr * mp[c]) // prev
        rank += 1
        prev = piv
        if rank == n_rows:
            break
    return rank


def hom_dim_linear(U: Representation, V: Representation, sanity: bool = False) -> int:
    """dim Hom(U, V) as the corank of the intertwiner system."""
    rows, nvars = _intertwiner_matrix(U, V)
    if U is V and not sanity and nvars - _rank_bareiss(rows, SANITY_PRIME) == 1:
        return 1  # End(U): corank 1 <= corank over Q <= corank mod p
    rank = _rank_bareiss(rows)
    if sanity:
        rank_p = _rank_bareiss(rows, SANITY_PRIME)
        if rank_p != rank:
            raise ArithmeticError(
                f"rank disagreement: {rank} over Q vs {rank_p} mod {SANITY_PRIME}"
            )
    return nvars - rank


def end_dim_linear(U: Representation) -> int:
    return hom_dim_linear(U, U)

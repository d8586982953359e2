"""Momentum blocks of matrices that commute with the translation.

On both modules the translation Omega is one monomial times a
permutation P of the basis, so a matrix X between two of them with
X P_col = P_row X, entrywise X[P i, P j] = X[i, j], splits into n
blocks.  For an orbit a of P, with representative i_a and length L_a,
and a momentum m with m L_a = 0 (mod n), the unit vector

    x_(a,m) = L_a^(-1/2) sum_(k < L_a) w^(-mk) e_(P^k i_a),   w = exp(2 pi i / n),

satisfies P x_(a,m) = w^m x_(a,m), the x_(a,m) form an orthonormal
basis, and

    <x_(a,m), X x_(b,m)> = sqrt(L_b / L_a) sum_(k < L_a) w^(mk) X[P^k i_a, j_b].

So the eigenvalues and singular values of X are those of its blocks,
about dim/n square each.  A block reads only the columns of the orbit
representatives, and one discrete Fourier transform along each orbit
gives every momentum at once; no dim x dim matrix is evaluated and no
change of basis is formed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class Orbits:
    """Integer tables of a translation Omega = c P on one module.

    ``c`` is c and ``perm`` is P (Omega e_j = c e_perm[j]); ``powers[r]``
    is P^r as an index array, r < n; as every orbit length divides n,
    P^-r is ``powers[-r]``.  ``groups[L]`` holds the orbits of length L
    as rows ``[i_a, P i_a, ..., P^(L-1) i_a]``; ``reps`` and ``lengths``
    list every orbit's representative and length in that order.  As the
    rows of a block, the pairs (orbit a, Fourier index t) are numbered
    group by group, a * L + t within a group; ``rows_at[m]``, as a
    column, and ``cols_at[m]`` are the row and the orbit numbers that
    carry momentum m.
    """

    __slots__ = ("n", "c", "perm", "powers", "groups", "reps", "lengths", "rows_at", "cols_at")

    def __init__(self, omega, n: int):
        entries = [next(iter(col.items())) if len(col) == 1 else None for col in omega.columns]
        if None in entries or len({i for i, _ in entries}) != len(entries):
            raise ValueError("the translation is not a monomial matrix")
        c = entries[0][1]
        if any(e != c for _, e in entries) or len(c.triples) != 1:
            raise ValueError("the translation is not one monomial times a permutation")
        self.n = n
        self.c = c
        self.perm = [i for i, _ in entries]
        seen = [False] * len(entries)
        groups: dict = {}
        for start in range(len(entries)):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            while (nxt := self.perm[orbit[-1]]) != start:
                orbit.append(nxt)
                seen[nxt] = True
            if n % len(orbit):
                raise ValueError(f"an orbit of length {len(orbit)} on {n} sites")
            groups.setdefault(len(orbit), []).append(orbit)
        step = np.array(self.perm, dtype=np.int32)  # int32 keeps transfer_table's term arrays small
        self.powers = [np.arange(len(step), dtype=np.int32)]
        for _ in range(n - 1):
            self.powers.append(step[self.powers[-1]])
        self.groups = {L: np.array(g, dtype=np.intp) for L, g in sorted(groups.items())}
        self.reps = np.concatenate([g[:, 0] for g in self.groups.values()])
        self.lengths = np.concatenate([np.full(len(g), L) for L, g in self.groups.items()])
        self.rows_at, self.cols_at = [], []
        for m in range(n):
            rows, cols, row0, col0 = [], [], 0, 0
            for L, g in self.groups.items():
                if m * L % n == 0:
                    rows.append(row0 + L * np.arange(len(g)) + m * L // n)
                    cols.append(col0 + np.arange(len(g)))
                row0 += g.size
                col0 += len(g)
            self.rows_at.append(np.concatenate(rows or [np.arange(0)])[:, None])
            self.cols_at.append(np.concatenate(cols or [np.arange(0)]))


def check_covariant(x, rows: Orbits, cols: Orbits):
    """Raise ValueError unless the exact matrix ``x`` satisfies
    x[P_row i, P_col j] = x[i, j] for every i and j."""
    prow, pcol = rows.perm, cols.perm
    for j, col in enumerate(x.columns):
        image = x.columns[pcol[j]]
        if len(image) != len(col) or any(image.get(prow[i]) != e for i, e in col.items()):
            raise ValueError("the matrix does not commute with the translation")


@lru_cache(maxsize=None)
def covariant_orbits(build, row_orbits, col_orbits, n: int, d: int):
    """``(row_orbits(n, d), col_orbits(n, d))``, once the exact matrix
    ``build(n, d)`` passes :func:`check_covariant` for them.  Cached per
    builder and sector, so each matrix is checked once; a failure raises
    ValueError on every call.  Callers pass the builder their own module
    resolves, so a replaced builder is checked afresh."""
    rows, cols = row_orbits(n, d), col_orbits(n, d)
    check_covariant(build(n, d), rows, cols)
    return rows, cols


@lru_cache(maxsize=None)
def _dft(L: int) -> np.ndarray:
    k = np.arange(L)
    return np.exp(2j * np.pi * np.outer(k, k) / L) / np.sqrt(L)


def blocks(at_reps: np.ndarray, rows: Orbits, cols: Orbits) -> list:
    """The n momentum blocks of a matrix X that passed
    :func:`covariant_orbits` for these orbits, read off ``at_reps``, its
    numeric columns at ``cols.reps`` in that order (as
    ``X.to_numeric(u, v, cols.reps)`` evaluates them).

    Block m has one row per row orbit and one column per column orbit
    that carries momentum m, in the order of the ``groups`` tables.
    """
    sub = at_reps * np.sqrt(cols.lengths)
    # row a * L + t of group L: L^(-1/2) sum_k exp(2 pi i t k / L) sub[P^k i_a]
    f = np.concatenate([(_dft(L) @ sub[g]).reshape(-1, sub.shape[1]) for L, g in rows.groups.items()])
    return [f[r, c] for r, c in zip(rows.rows_at, cols.cols_at)]


def by_shape(blocks) -> list:
    """The nonempty blocks stacked by shape, as ``(count, rows, cols)``
    arrays for numpy's stacked linear algebra."""
    shapes: dict = {}
    for b in blocks:
        if b.size:
            shapes.setdefault(b.shape, []).append(b)
    return [np.stack(bs) for bs in shapes.values()]

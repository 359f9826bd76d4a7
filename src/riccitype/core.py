"""Normal-form models (Omega, A) and the quadric Sigma_A.

A model is a symplectic vector space (R^{2(n+1)}, Omega) together with a
characteristic element A in sp(Omega) satisfying A^2 = mu*Id; both live on
``SymplecticModel``, and only the normal forms below build one.  ``CASES``
maps each, tagged by the sign of mu, to the parameters (k, p, q) it reads;
every A has entries in {0, +-k}, so k = max|A| (k = 1 when nilpotent):

* ``hyperbolic``  (mu = k^2 > 0):   A = diag(k*I, -k*I) in a basis of two
  dual Lagrangian blocks, Omega = [[0, I], [-I, 0]].
* ``elliptic``    (mu = -k^2 < 0):  Omega(e_i, f_j) = eps_i delta_ij with
  eps_i = +1 for i <= p and -1 beyond, and A e_l = k f_l, A f_l = -k e_l.
* ``nilpotent``   (mu = 0):         A e*_i = e_i on a basis
  (e_1..e_p, f_1..f_{2(n+1-p)}, e*_1..e*_p) with Omega in 3x3 block form.

The level set Sigma_A = {x : Omega(x, Ax) = 1} carries the one-parameter
flow exp(tA), given in closed form per sign class by the model's own
``SymplecticModel.flow`` and as a truncated Taylor series for the oracle
(``series_exp``).  A batch of Sigma_A points is an (S, N) array, one point per
row as every layer reads it, which ``sample_sigma`` draws as one seeded block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CASES = {"hyperbolic": ("k",), "elliptic": ("k", "p"), "nilpotent": ("p", "q")}

#: absolute tolerance for algebraic identities on unit-scale inputs
DEFAULT_TOL = 1e-9


def standard_symplectic_form(m: int) -> np.ndarray:
    """Block form [[0, I_m], [-I_m, 0]] on R^{2m}."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


def signature_matrix(p: int, q: int) -> np.ndarray:
    """diag(+1 x p, -1 x q)."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


@dataclass(frozen=True)
class SymplecticModel:
    """Ambient space data: case tag, dimensions, the scale k = max|A|, Omega and A^2 = mu*Id."""

    case: str
    n: int
    k: float
    p: int
    q: int
    omega: np.ndarray
    A: np.ndarray
    mu: float

    @property
    def ambient_dim(self) -> int:
        return 2 * (self.n + 1)

    @property
    def omega0(self) -> np.ndarray:
        """Middle-block form on the f-basis (nilpotent case only)."""
        if self.case != "nilpotent":
            raise ValueError("omega0 is only defined for the nilpotent case")
        m = self.n + 1 - self.p
        return self.omega[self.p:self.p + 2 * m, self.p:self.p + 2 * m].copy()

    @property
    def eps(self) -> np.ndarray:
        """Signs eps_i of the pairing, length p (nilpotent) or n+1 (elliptic)."""
        if self.case == "nilpotent":
            return np.concatenate([np.ones(self.q), -np.ones(self.p - self.q)])
        if self.case == "elliptic":
            return np.concatenate([np.ones(self.p), -np.ones(self.q)])
        raise ValueError("eps is not defined for the hyperbolic case")

    def flow(self, t) -> np.ndarray:
        """exp(tA) in closed form for A^2 = mu*Id, one matrix per time of an array.

        mu = k^2:  cosh(kt) I + sinh(kt)/k A
        mu = -k^2: cos(kt) I + sin(kt)/k A
        mu = 0:    I + t A
        """
        ident = np.eye(self.ambient_dim)
        t = np.asarray(t, dtype=float)[..., None, None]
        if self.mu > 0:
            k = np.sqrt(self.mu)
            return np.cosh(k * t) * ident + (np.sinh(k * t) / k) * self.A
        if self.mu < 0:
            k = np.sqrt(-self.mu)
            return np.cos(k * t) * ident + (np.sin(k * t) / k) * self.A
        return ident + t * self.A


def apply_rows(mat, vecs) -> np.ndarray:
    """mat @ v for each row v of an (S, N) stack, with one matrix or one per row.

    Each row gets one matrix-vector product, the product a single point gets.
    """
    return np.matmul(mat, vecs[..., None])[..., 0]


def dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u @ v for each pair of rows: one dot product per row, the one a single point gets."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _hyperbolic_model(n: int, k: float) -> SymplecticModel:
    m = n + 1
    omega = standard_symplectic_form(m)
    a = np.zeros((2 * m, 2 * m))
    a[:m, :m] = k * np.eye(m)
    a[m:, m:] = -k * np.eye(m)
    return SymplecticModel("hyperbolic", n, k, 0, 0, omega, a, k * k)


def _elliptic_model(n: int, k: float, p: int) -> SymplecticModel:
    m = n + 1
    q = m - p
    ipq = signature_matrix(p, q)
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = ipq
    omega[m:, :m] = -ipq
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = -k * np.eye(m)
    a[m:, :m] = k * np.eye(m)
    return SymplecticModel("elliptic", n, k, p, q, omega, a, -k * k)


def _nilpotent_model(n: int, p: int, q: int) -> SymplecticModel:
    m = n + 1 - p
    dim = 2 * (n + 1)
    iqp = signature_matrix(q, p - q)
    omega = np.zeros((dim, dim))
    omega[:p, p + 2 * m:] = -iqp
    omega[p + 2 * m:, :p] = iqp
    omega[p:p + 2 * m, p:p + 2 * m] = standard_symplectic_form(m)
    a = np.zeros((dim, dim))
    a[:p, p + 2 * m:] = np.eye(p)
    return SymplecticModel("nilpotent", n, 1.0, p, q, omega, a, 0.0)


def build_model(case: str, n: int, k: float = 1.0, p: int | None = None,
                q: int | None = None) -> SymplecticModel:
    """Construct the normal-form model for one of the three cases.

    Raises ValueError for n < 2, k <= 0 or mu = +-k^2 not finite and nonzero
    (hyperbolic/elliptic) or (p, q) out of range (elliptic: 1 <= p <= n+1;
    nilpotent: 1 <= q <= p <= n+1).
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {tuple(CASES)}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    # written as `not (k > 0 and 0 < k^2 < inf)` so that NaN fails too
    if "k" in CASES[case] and not (k > 0 and 0 < float(k) * float(k) < np.inf):
        raise ValueError(f"k must be finite and > 0 with k^2 finite and nonzero, got {k}")
    if case == "hyperbolic":
        return _hyperbolic_model(n, float(k))
    if case == "elliptic":
        if p is None or not 1 <= p <= n + 1:
            raise ValueError(f"elliptic case needs 1 <= p <= n+1, got p={p}")
        return _elliptic_model(n, float(k), p)
    if p is None or q is None or not 1 <= q <= p <= n + 1:
        raise ValueError(f"nilpotent case needs 1 <= q <= p <= n+1, got p={p}, q={q}")
    return _nilpotent_model(n, p, q)


def admissible_parameters(n_values=(2, 3, 4)) -> list[tuple[str, int, int, int]]:
    """All (case, n, p, q) tuples at desk scale, p = q = 0 where unused."""
    out = []
    for n in n_values:
        out.append(("hyperbolic", n, 0, 0))
        for p in range(1, n + 2):
            out.append(("elliptic", n, p, n + 1 - p))
        for p in range(1, n + 2):
            for q in range(1, p + 1):
                out.append(("nilpotent", n, p, q))
    return out


def series_exp(a_matrix: np.ndarray, t, terms: int = 25) -> np.ndarray:
    """Truncated Taylor series of exp(tA), the oracle for ``SymplecticModel.flow``; an
    array of times gives one matrix per time."""
    a = np.asarray(a_matrix, dtype=float)
    t = np.asarray(t, dtype=float)[..., None, None]
    acc = term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ (t * a) / j
        acc = acc + term
    return acc


def sp_residual(omega: np.ndarray, x: np.ndarray) -> float:
    """Max-norm of tX Omega + Omega X (zero iff X in sp(Omega))."""
    return float(np.max(np.abs(x.T @ omega + omega @ x)))


def characteristic_residuals(model: SymplecticModel) -> dict:
    """Residuals of the defining identities of the model's characteristic element A."""
    a = model.A
    return {
        "sp_membership": sp_residual(model.omega, a),
        "square_identity": float(np.max(np.abs(a @ a - model.mu * np.eye(a.shape[0])))),
    }


def sigma_value(model: SymplecticModel, x):
    """Omega(x, Ax), one value per row of a stack; a point is on Sigma_A iff this equals 1."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1] != model.ambient_dim:
        raise ValueError(f"expected vector of length {model.ambient_dim}, got {v.shape[-1]}")
    return (v[..., None, :] @ model.omega @ apply_rows(model.A, v)[..., None])[..., 0, 0]


#: rounds of redraws allowed for the rows whose free block is numerically degenerate
MAX_SAMPLE_RETRIES = 100


def _degenerate(model: SymplecticModel, z: np.ndarray) -> np.ndarray:
    """Rows of free draws (at scale 1/sqrt(k)) that cannot be solved onto Sigma_A:
    max|x+| < 0.1/sqrt(k) (hyperbolic), |pos|^2 < 1e-8/k for the positive-sign block
    otherwise."""
    if model.case == "hyperbolic":
        return np.max(np.abs(z[:, :model.n + 1]), axis=1) < 0.1 / np.sqrt(model.k)
    pos = z[:, model.ambient_dim:]
    return dot_rows(pos, pos) < 1e-8 / model.k


def _solve_quadric(model: SymplecticModel, z: np.ndarray) -> np.ndarray:
    """The Sigma_A point of each row of free draws: one linear coordinate is
    solved (hyperbolic), or the positive-sign block is rescaled so that
    |pos|^2 - |neg|^2 meets the quadric."""
    x, pos = z[:, :model.ambient_dim].copy(), z[:, model.ambient_dim:]
    m, p, q = model.n + 1, model.p, model.q
    if model.case == "hyperbolic":
        xp, xm = x[:, :m], x[:, m:]
        rows = np.arange(len(x))
        j = np.argmax(np.abs(xp), axis=1)
        rest = dot_rows(xp, xm) - xp[rows, j] * xm[rows, j]
        xm[rows, j] = (-1.0 / (2.0 * model.k) - rest) / xp[rows, j]
        return x
    if model.case == "elliptic":
        neg_sq = dot_rows(x[:, p:m], x[:, p:m]) + dot_rows(x[:, m + p:], x[:, m + p:])
        target, cols = 1.0 / model.k, np.r_[:p, m:m + p]
    else:
        start = 2 * m - p  # x*_1
        neg_sq = dot_rows(x[:, start + q:], x[:, start + q:])
        target, cols = 1.0, np.arange(start, start + q)
    pos = np.sqrt((target + neg_sq) / dot_rows(pos, pos))[:, None] * pos
    if model.case == "nilpotent" and q == 1:
        # fix the connected component x*^1 = cosh(alpha) > 0
        pos[:, 0] = np.abs(pos[:, 0])
    x[:, cols] = pos
    return x


def sample_sigma(model: SymplecticModel, count: int, seed: int) -> np.ndarray:
    """Deterministic seeded sample of Sigma_A, one point per row of a (count, N) array.

    One standard-normal block, divided by sqrt(k) since Sigma_{k A_1} = Sigma_{A_1} / sqrt(k),
    holds every row's free coordinates: x+, x-
    (hyperbolic); x, y, then the positive-sign block (elliptic); x, X, x*,
    then the positive-sign block (nilpotent).  The quadric is solved exactly
    per row, for one linear coordinate (hyperbolic) or by rescaling the
    positive-sign block.  A row whose free block is degenerate is redrawn
    whole after the block, in at most MAX_SAMPLE_RETRIES rounds.  For
    nilpotent q = 1 the component with x*^1 > 0 is sampled.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    extra = {"hyperbolic": 0, "elliptic": 2 * model.p, "nilpotent": model.q}[model.case]
    rng = np.random.default_rng(seed)
    scale = np.sqrt(model.k)
    z = rng.standard_normal((count, model.ambient_dim + extra)) / scale
    bad = _degenerate(model, z)
    for _ in range(MAX_SAMPLE_RETRIES):
        if not bad.any():
            break
        z[bad] = rng.standard_normal((int(bad.sum()), z.shape[1])) / scale
        bad = _degenerate(model, z)
    if bad.any():
        raise RuntimeError("sampling failed: degenerate draws exhausted the retry budget")
    x = _solve_quadric(model, z)
    miss = np.abs(sigma_value(model, x) - 1.0)
    if np.any(miss > 1e-12):
        raise RuntimeError(f"sampled point misses Sigma_A by {miss[np.argmax(miss > 1e-12)]:.3e}")
    return x

"""Independent reference computations used by the test suite.

Everything here is deliberately written against a different code path
than the package: exact rational arithmetic for ranks and small solves,
scipy's null_space and numpy's pinv where the package uses its own
spectral machinery, and brute-force reparametrizations for constrained
problems.  Tests compare package output against these, never against
the package itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.linalg import cholesky, null_space

from gmls import DimensionMismatchError
from gmls.model import EQUATION_MAJOR, PERIOD_MAJOR


def _to_fractions(matrix):
    # Fraction(float) is exact, so this loses nothing
    arr = np.asarray(matrix, dtype=float)
    return [[Fraction(v) for v in row] for row in arr.tolist()]


def fraction_rank(matrix) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    rows = _to_fractions(matrix)
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, n_rows):
            if rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _solve_fraction_rows(a_rows, b_rows) -> np.ndarray:
    # Gaussian elimination on lists of Fractions, returned as floats
    n = len(a_rows)
    for k in range(n):
        pivot = next(i for i in range(k, n) if a_rows[i][k] != 0)
        a_rows[k], a_rows[pivot] = a_rows[pivot], a_rows[k]
        b_rows[k], b_rows[pivot] = b_rows[pivot], b_rows[k]
        for i in range(k + 1, n):
            if a_rows[i][k] != 0:
                f = a_rows[i][k] / a_rows[k][k]
                a_rows[i] = [x - f * y for x, y in zip(a_rows[i], a_rows[k])]
                b_rows[i] = [x - f * y for x, y in zip(b_rows[i], b_rows[k])]
    width = len(b_rows[0])
    sol = [[Fraction(0)] * width for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(width):
            acc = b_rows[i][j]
            for k in range(i + 1, n):
                acc -= a_rows[i][k] * sol[k][j]
            sol[i][j] = acc / a_rows[i][i]
    return np.array([[float(v) for v in row] for row in sol])


def fraction_solve(a_mat, b_vec) -> np.ndarray:
    """Exact solution of a square nonsingular system, returned as floats."""
    a_rows = _to_fractions(a_mat)
    b_rows = _to_fractions(np.asarray(b_vec).reshape(len(a_rows), -1))
    return _solve_fraction_rows(a_rows, b_rows)


def penrose_defects(b_mat, b_pinv):
    """Sup-norm residuals of the four defining pseudo-inverse identities."""
    b = np.asarray(b_mat, dtype=float)
    g = np.asarray(b_pinv, dtype=float)
    return (
        float(np.max(np.abs(b @ g @ b - b), initial=0.0)),
        float(np.max(np.abs(g @ b @ g - g), initial=0.0)),
        float(np.max(np.abs((b @ g).T - b @ g), initial=0.0)),
        float(np.max(np.abs((g @ b).T - g @ b), initial=0.0)),
    )


def spectral_pinv(spec) -> np.ndarray:
    """Moore-Penrose inverse F diag(1/lambda) F' reassembled from the
    positive part of a spectral decomposition, so the null space of the
    decomposed matrix is exactly the null space of the result."""
    f = spec.eigenvectors_pos
    return (f / spec.eigenvalues_pos) @ f.T


def reconstruct(spec) -> np.ndarray:
    """The decomposed matrix F diag(lambda) F' reassembled from the
    positive part of a spectral decomposition."""
    f = spec.eigenvectors_pos
    return (f * spec.eigenvalues_pos) @ f.T


def formed_whitened_step(model, gain, beta_star) -> np.ndarray:
    """beta* + G (W y - W X beta*) with W X and W y formed first from the
    model's F'X and F'y, W = Lambda^{-1/2} F': the whitened update taken
    in whitened coordinates, every product a new array."""
    root = np.sqrt(model.spectrum.eigenvalues_pos)[:, None]
    fx, fy = model._range_products
    return gain @ (fy / root - (fx / root) @ beta_star) + beta_star


def dense_sandwich(gain, spec) -> np.ndarray:
    """G Omega G' as (G F Lambda^{1/2})(G F Lambda^{1/2})' with the dense
    T x rank eigenvector matrix F."""
    half = (gain @ spec.eigenvectors_pos) * np.sqrt(spec.eigenvalues_pos)
    return half @ half.T


def whitened_gls(y_vec, x_mat, omega) -> np.ndarray:
    """GLS by Cholesky whitening followed by a plain least-squares solve."""
    chol = cholesky(np.asarray(omega, dtype=float), lower=True)
    xw = np.linalg.solve(chol, x_mat)
    yw = np.linalg.solve(chol, np.asarray(y_vec, dtype=float).reshape(-1, 1))
    beta, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    return beta


def constrained_wls(y_vec, x_mat, weight, h_mat, h_rhs) -> np.ndarray:
    """Minimize (y - Xb)' W (y - Xb) subject to H b = h.

    Solved by brute-force reparametrization over scipy's null space.
    Covers restricted OLS (W = I), restricted GLS (W = inverse
    dispersion), and the singular-dispersion constrained estimator
    (W = pseudo-inverse dispersion).
    """
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    x = np.asarray(x_mat, dtype=float)
    w = np.asarray(weight, dtype=float)
    k = x.shape[1]
    h = np.asarray(h_mat, dtype=float).reshape(-1, k)
    if h.shape[0]:
        rhs = np.asarray(h_rhs, dtype=float).reshape(-1, 1)
        beta_p, *_ = np.linalg.lstsq(h, rhs, rcond=None)
        basis = null_space(h)
    else:
        beta_p = np.zeros((k, 1))
        basis = np.eye(k)
    if basis.size == 0:
        return beta_p
    xn = x @ basis
    gram = xn.T @ w @ xn
    coef = np.linalg.solve(gram, xn.T @ w @ (y - x @ beta_p))
    return beta_p + basis @ coef


def ridge_direct(y_vec, x_mat, shift_matrix) -> np.ndarray:
    x = np.asarray(x_mat, dtype=float)
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    return np.linalg.solve(x.T @ x + np.asarray(shift_matrix, dtype=float), x.T @ y)


def mixed_direct(y_vec, x_mat, omega, r_mat, r_rhs, theta, s2) -> np.ndarray:
    """Textbook augmented-system weighted solve for stochastic restrictions."""
    x = np.asarray(x_mat, dtype=float)
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    omega_inv = np.linalg.inv(np.asarray(omega, dtype=float))
    theta_inv = np.linalg.inv(np.asarray(theta, dtype=float))
    r = np.asarray(r_mat, dtype=float)
    rhs = np.asarray(r_rhs, dtype=float).reshape(-1, 1)
    lhs = x.T @ omega_inv @ x / s2 + r.T @ theta_inv @ r
    return np.linalg.solve(lhs, x.T @ omega_inv @ y / s2 + r.T @ theta_inv @ rhs)


def mixed_dispersion(x_mat, omega, r_mat, theta, s2) -> np.ndarray:
    """Textbook D(beta_hat) = (X' Omega^{-1} X / s^2 + R' Theta^{-1} R)^{-1}
    of the mixed estimator."""
    x = np.asarray(x_mat, dtype=float)
    r = np.asarray(r_mat, dtype=float)
    omega_inv = np.linalg.inv(np.asarray(omega, dtype=float))
    theta_inv = np.linalg.inv(np.asarray(theta, dtype=float))
    return np.linalg.inv(x.T @ omega_inv @ x / s2 + r.T @ theta_inv @ r)


def mixed_stacked_lstsq(y_block, x_mat, omega, r_mat, r_rhs, theta, s2):
    """Mixed estimation as np.linalg.lstsq on the stacked system, whitened
    by dense eigh whiteners Lambda^{-1/2} F' of Omega (its rows scaled by
    1/s) and of Theta.  Returns the K x B estimate and the covariance
    factor pinv(A) pinv(A)' / s^2 of the stacked whitened design A."""
    def whitener(mat):
        vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=float))
        return vecs.T / np.sqrt(vals)[:, None]

    y = np.asarray(y_block, dtype=float)
    w_model, w_restr = whitener(omega) / np.sqrt(s2), whitener(theta)
    rhs = np.broadcast_to(w_restr @ np.asarray(r_rhs, dtype=float), (len(r_rhs), y.shape[1]))
    a_mat = np.vstack([w_model @ x_mat, w_restr @ r_mat])
    beta = np.linalg.lstsq(a_mat, np.vstack([w_model @ y, rhs]), rcond=None)[0]
    pinv = np.linalg.lstsq(a_mat, np.eye(len(a_mat)), rcond=None)[0]
    return beta, pinv @ pinv.T / s2


def pinv_mls(y_vec, x_mat, omega) -> np.ndarray:
    """Unrestricted singular-dispersion estimator via numpy's own pinv."""
    x = np.asarray(x_mat, dtype=float)
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    om_pinv = np.linalg.pinv(np.asarray(omega, dtype=float), hermitian=True)
    return np.linalg.solve(x.T @ om_pinv @ x, x.T @ om_pinv @ y)


def fe_joint_gls(designs, responses, sigma_blocks):
    """Fixed-effects slopes by GLS on the design augmented with dummies.

    Stacks all equations, appends one intercept dummy per equation, runs
    whitened GLS on the full system, and returns the slope subvector and
    its covariance block.  Independent of every projector identity the
    package relies on.
    """
    n = len(designs)
    m = designs[0].shape[0]
    x = np.vstack(designs)
    dummies = np.kron(np.eye(n), np.ones((m, 1)))
    full = np.hstack([x, dummies])
    y = np.vstack([np.asarray(r, dtype=float).reshape(m, 1) for r in responses])
    omega = np.zeros((n * m, n * m))
    for i in range(n):
        omega[i * m:(i + 1) * m, i * m:(i + 1) * m] = sigma_blocks[i]
    chol = cholesky(omega, lower=True)
    fw = np.linalg.solve(chol, full)
    yw = np.linalg.solve(chol, y)
    gram = fw.T @ fw
    beta_full = np.linalg.solve(gram, fw.T @ yw)
    k = x.shape[1]
    cov_full = np.linalg.inv(gram)
    return beta_full[:k], cov_full[:k, :k]


def matrix_rank_svd(matrix) -> int:
    """numpy's own rank, as an independent cross-check of rank decisions."""
    arr = np.asarray(matrix, dtype=float)
    if arr.size == 0:
        return 0
    return int(np.linalg.matrix_rank(arr))


def stacked_membership(y_vec, x_mat, omega):
    """Admissibility by an SVD of the whole T x (T+K) matrix (X : Omega).

    Returns (admissible, rank cutoff, basis of the complement of
    col(X : Omega)).  y is admissible when its distance
    from col(X : Omega) is at most 1e-8 * (1 + ||y||).
    """
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    stacked = np.hstack([np.asarray(x_mat, dtype=float), np.asarray(omega, dtype=float)])
    u, s, _ = np.linalg.svd(stacked, full_matrices=True)
    cutoff = max(stacked.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    resid = float(np.linalg.norm(u[:, rank:].T @ y))
    return resid <= 1e-8 * (1.0 + float(np.linalg.norm(y))), cutoff, u[:, rank:]


def bordered_normal_system(y_vec, x_mat, weight, h_mat, h_rhs):
    """The first-order system of min (y - Xb)' W (y - Xb) over H b = h.

        [ X'WX  H' ] [ beta   ]   [ X'Wy ]
        [ H     0  ] [ lambda ] = [ h    ]

    Solved in floating point by least squares, so redundant rows of H,
    which leave the system singular but consistent, get the minimum-norm
    solution.  Returns (beta, lagrange, residual norm of the system).
    """
    y = np.asarray(y_vec, dtype=float).reshape(-1, 1)
    x = np.asarray(x_mat, dtype=float)
    w = np.asarray(weight, dtype=float)
    k = x.shape[1]
    h = np.asarray(h_mat, dtype=float).reshape(-1, k)
    rows = h.shape[0]
    system = np.zeros((k + rows, k + rows))
    system[:k, :k] = x.T @ w @ x
    system[:k, k:] = h.T
    system[k:, :k] = h
    rhs = np.vstack([x.T @ w @ y, np.asarray(h_rhs, dtype=float).reshape(-1, 1)])
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(system @ solution - rhs))
    return solution[:k], solution[k:], residual


def exact_bordered_beta(y_vec, x_mat, dispersion_diag, h_mat, h_rhs,
                        shift=0.0) -> np.ndarray:
    """beta of the bordered system in exact rational arithmetic.

    The dispersion is diagonal, so its Moore-Penrose inverse diag(1/d)
    over the nonzero d is exact in rationals, and so are X' Omega^+ X
    and X' Omega^+ y.  ``shift`` is added to the diagonal of X' Omega^+ X
    (the ridge system X'X + psi I).  H must have full row rank and the
    system must be nonsingular.  Only the final beta is rounded to floats.
    """
    x = _to_fractions(x_mat)
    y = [row[0] for row in _to_fractions(np.asarray(y_vec).reshape(-1, 1))]
    weight = [0 if v == 0 else 1 / v for v in (Fraction(float(d)) for d in dispersion_diag)]
    k = len(x[0])
    h = _to_fractions(np.asarray(h_mat, dtype=float).reshape(-1, k))
    h_vec = _to_fractions(np.asarray(h_rhs, dtype=float).reshape(-1, 1))
    rows = len(h)
    system = [[sum((w * xt[i] * xt[j] for w, xt in zip(weight, x)), Fraction(0))
               for j in range(k)] + [h[r][i] for r in range(rows)] for i in range(k)]
    for i in range(k):
        system[i][i] += Fraction(float(shift))
    system += [h[r] + [Fraction(0)] * rows for r in range(rows)]
    rhs = [[sum((w * xt[i] * yt for w, xt, yt in zip(weight, x, y)), Fraction(0))]
           for i in range(k)] + h_vec
    return _solve_fraction_rows(system, rhs)[:k]


def augmented_rank_refusals(h_mat, h_vec, tol=None) -> np.ndarray:
    """Columns h_j with rank(H, h_j) != rank(H), one SVD per column.

    The rule combine_restrictions applied to every H before it accepted
    full-row-rank H outright: each rank counts the singular values above
    max(rows, cols) * eps * sigma_1, or above ``tol`` when given.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    h_vec = np.asarray(h_vec, dtype=float)

    def rank(mat):
        values = np.linalg.svd(mat, compute_uv=False)
        cutoff = max(mat.shape) * np.finfo(float).eps * values[0] if tol is None \
            else float(tol)
        return int(np.count_nonzero(values > cutoff))

    rank_h = rank(h_mat)
    return np.array([j for j in range(h_vec.shape[1])
                     if rank(np.hstack([h_mat, h_vec[:, j:j + 1]])) != rank_h],
                    dtype=int)


def jackknife_covariance_se_direct(estimates) -> np.ndarray:
    """Delete-one jackknife SEs of the sample covariance entries, from
    all B delete-one covariances formed as B x K x K arrays."""
    estimates = np.asarray(estimates, dtype=float)
    reps = estimates.shape[0]
    total = estimates.sum(axis=0)
    cross = estimates.T @ estimates
    outer = estimates[:, :, None] * estimates[:, None, :]
    mean_wo = (total[None, :] - estimates) / (reps - 1)
    cross_wo = cross[None, :, :] - outer
    cov_wo = (cross_wo - (reps - 1) * mean_wo[:, :, None] * mean_wo[:, None, :]) \
        / (reps - 2)
    center = cov_wo.mean(axis=0)
    return np.sqrt((reps - 1) / reps * ((cov_wo - center) ** 2).sum(axis=0))


def study_spread(estimates):
    """mc_se, sample covariance and jackknife SEs of B x K study estimates
    by np.std(ddof=1), np.cov, and a jackknife that takes its own mean."""
    reps, k_dim = estimates.shape
    mc_se = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
    sample_cov = np.cov(estimates.T, ddof=1).reshape(k_dim, k_dim)
    deviations = estimates - estimates.mean(axis=0)
    mean_outer = deviations.T @ deviations / reps
    squares = deviations * deviations
    spread = np.maximum(squares.T @ squares - reps * mean_outer * mean_outer, 0.0)
    return mc_se, sample_cov, \
        reps / ((reps - 1) * (reps - 2)) * np.sqrt((reps - 1) / reps * spread)


def spectral_errors(vectors, values, blocks, sigma2, z):
    """sqrt(sigma2) F_i (sqrt(Lambda_i) z_i) for the count x (blocks r) draws
    z, every product a new array, stacked as a (blocks T_i) x count block."""
    count = z.shape[0]
    scaled = np.sqrt(values)[..., None] * z.T.reshape(blocks, -1, count)
    return (np.sqrt(sigma2) * (vectors @ scaled)).reshape(-1, count)


# ---------------------------------------------------------------------------
# fixed-effects and SUR layouts, built entry by entry

def dummy_matrix(n: int, m: int) -> np.ndarray:
    """The fixed-effects design Z = I_n kron e_m."""
    return np.kron(np.eye(n), np.ones((m, 1)))


def dense_fe_projectors(model):
    """The nm x nm projectors (M, Q, P) of a fixed-effects panel, from their
    definitions: M = I_n kron M_m centers each equation over time,
    Q = Z (Z'V^{-1}Z)^{-1} Z'V^{-1} projects onto the dummies Z along the
    metric V^{-1}, V = blockdiag(Sigma_i), and P = V^{-1}(I - Q) is the
    weight of the swept GLS problem.  Dense inverses, no whitener."""
    n, m = model.n, model.m
    v = np.zeros((n * m, n * m))
    for i, block in enumerate(np.broadcast_to(model.sigmas, (n, m, m))):
        v[i * m:(i + 1) * m, i * m:(i + 1) * m] = block
    v_inv = np.linalg.inv(v)
    z = dummy_matrix(n, m)
    q = z @ np.linalg.inv(z.T @ v_inv @ z) @ z.T @ v_inv
    centering = np.kron(np.eye(n), np.eye(m) - np.full((m, m), 1.0 / m))
    return centering, q, v_inv @ (np.eye(n * m) - q)


def period_row(layout, t: int) -> np.ndarray:
    """The n x K design block of period t in period-major stacking."""
    row = np.zeros((layout.n, layout.num_params))
    for i, (block, cols) in enumerate(zip(layout.block_design, layout.column_slices())):
        row[i, cols] = block[t, :]
    return row


def stacking_permutation(n: int, m: int, src: str, dst: str) -> np.ndarray:
    """Row permutation taking src-major stacked arrays to dst-major order.

    Returns an index array p with A_dst = A_src[p].  Equation-major rows
    are ordered (i, t) -> i*m + t, period-major rows (i, t) -> t*n + i.
    """
    for name in (src, dst):
        if name not in (PERIOD_MAJOR, EQUATION_MAJOR):
            raise ValueError(f"unknown ordering {name!r}")
    if src == dst:
        return np.arange(n * m)
    if dst == PERIOD_MAJOR:  # src is equation-major: position t*n + i holds i*m + t
        return (np.arange(m)[:, None] + m * np.arange(n)).ravel()
    # dst equation-major, src period-major: position i*m + t holds t*n + i
    return (np.arange(n)[:, None] + n * np.arange(m)).ravel()


def extract_sur_blocks(model, layout):
    """Recover the per-equation (design, response) pairs from a stacked model.

    Inverse of stack_sur up to exact equality; the model must carry the
    ordering tag stack_sur recorded.
    """
    if model.ordering not in (PERIOD_MAJOR, EQUATION_MAJOR):
        raise ValueError("model does not record a SUR stacking order")
    n, m = layout.n, layout.m
    if model.num_obs != n * m:
        raise DimensionMismatchError("model size does not match layout")
    perm = stacking_permutation(n, m, src=model.ordering, dst=EQUATION_MAJOR)
    design_eq = model.X[perm]
    y_eq = model.y[perm]
    return [(design_eq[i * m:(i + 1) * m, cols], y_eq[i * m:(i + 1) * m])
            for i, cols in enumerate(layout.column_slices())]

"""Independent numerical oracles for the test suite.

Everything here is deliberately self-contained: Bessel functions come from
their power series and zeros from bisection, so eigenvalue checks never
share code with the solvers (or with scipy.special).  `rk4_sweep` is the
step-by-step RK4 loop that the radial scan kernel is checked against; it
reads only a path's tabulated steps and stage coefficients; `step_grid`
and `stage_coefficients` are the scalar step-grid loop and the per-stage
coefficient formulas that the radial path's array construction replaced.
The `coo_*` functions are the disk layer's assembly through COO triplets,
summed by scipy, and `fancy_grid_order` its permutation by fancy
indexing: the constructions that the grid stencil's slots replaced.
"""

import decimal
import math

import numpy as np
import scipy.sparse as sp


def bessel_j_series(nu: int, x: float, terms: int = 60) -> float:
    """J_nu(x) for integer nu >= 0 by the ascending power series."""
    half = 0.5 * x
    term = half ** nu / math.factorial(nu)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + nu))
        total += term
    return total


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bessel_zero(nu: int, n: int) -> float:
    """n-th positive zero of J_nu, located by scanning + bisection."""
    f = lambda x: bessel_j_series(nu, x)
    found = []
    x = 0.05
    step = 0.05
    prev = f(x)
    while len(found) < n:
        x += step
        cur = f(x)
        if (cur > 0) != (prev > 0):
            found.append(_bisect(f, x - step, x))
        prev = cur
        if x > 200:
            raise RuntimeError("zero scan ran away")
    return found[n - 1]


def spherical_bessel_zero(l: int, n: int) -> float:
    """n-th positive zero of the spherical function j_l via its series.

    j_l(x) = sqrt(pi/(2x)) J_{l+1/2}(x); the series is rebuilt with gamma
    factors so no half-integer factorials are needed.
    """

    def j_l(x):
        half = 0.5 * x
        # J_{l+1/2}(x) series with Gamma(k + l + 3/2)
        total = 0.0
        term = half ** (l + 0.5) / math.gamma(l + 1.5)
        total = term
        for k in range(1, 80):
            term *= -(half * half) / (k * (k + l + 0.5))
            total += term
        return math.sqrt(math.pi / (2 * x)) * total

    found = []
    x = 0.05
    step = 0.05
    prev = j_l(x)
    while len(found) < n:
        x += step
        cur = j_l(x)
        if (cur > 0) != (prev > 0):
            found.append(_bisect(j_l, x - step, x))
        prev = cur
        if x > 200:
            raise RuntimeError("zero scan ran away")
    return found[n - 1]


def harmonic_multiplicity(k: int, m: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{m-1} by the
    homogeneous-polynomial count C(m+k-1, k) - C(m+k-3, k-2)."""
    def comb(n, r):
        if r < 0 or n < 0 or r > n:
            return 0
        return math.comb(n, r)

    return comb(m + k - 1, k) - comb(m + k - 3, k - 2)


def second_derivative(f, x: float, h: float = 1e-4) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def first_derivative(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rk4_sweep(path, lam: float, y1: float = 1.0, y2: float = 0.0):
    """Reference sweep: the scalar RK4 loop over a radial path's tabulated stages.

    Steps (b, b') through b'' + P b' + (Q + lam) b = 0 one step at a time
    and returns b(r0), the number of sign changes of b along the path and
    the (b, b') samples at the nodes, node 0 holding the start values.
    """
    s = path.steps.tolist()
    P0, P1, P2 = path.P_stages.tolist()
    Q0, Q1, Q2 = path.Q_stages.tolist()
    at_node = set(path.node_steps.tolist())
    b, bp = [y1], [y2]
    neg = y1 < 0.0
    changes = 0
    for i, si in enumerate(s):
        q0 = Q0[i] + lam
        q1 = Q1[i] + lam
        q2 = Q2[i] + lam
        a1 = y2
        b1 = -P0[i] * y2 - q0 * y1
        u1 = y1 + 0.5 * si * a1
        u2 = y2 + 0.5 * si * b1
        a2 = u2
        b2 = -P1[i] * u2 - q1 * u1
        u1 = y1 + 0.5 * si * a2
        u2 = y2 + 0.5 * si * b2
        a3 = u2
        b3 = -P1[i] * u2 - q1 * u1
        u1 = y1 + si * a3
        u2 = y2 + si * b3
        a4 = u2
        b4 = -P2[i] * u2 - q2 * u1
        y1 += si * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        y2 += si * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        if (y1 < 0.0) != neg:
            neg = not neg
            changes += 1
        if i in at_node:
            b.append(y1)
            bp.append(y2)
    return y1, changes, (b, bp)


def step_grid(r0: float, n_t: int, substeps: int, alpha: float, m: int):
    """The radial shooting grid built one RK4 step at a time.

    Starts at 1e-6 r0 and steps min(c_stab t, h_int, distance to the next
    node), c_stab = min(0.2, 1/(2 alpha + m)), h_int = r0/(n_t substeps); a
    step that would leave less than a fifth of itself before the node is
    stretched to the node.  Returns the step ends, starting point included,
    and the indices of the steps that end on a node.
    """
    nodes = np.linspace(0.0, r0, n_t + 1)
    h_int = r0 / n_t / substeps
    c_stab = min(0.2, 1.0 / (2.0 * alpha + m))
    ts = [1e-6 * r0]
    marks = []
    t = ts[0]
    for j in range(1, n_t + 1):
        target = nodes[j]
        while t < target - 1e-14 * r0:
            s = min(c_stab * t, h_int, target - t)
            if target - (t + s) < 0.2 * s:
                s = target - t
            t += s
            ts.append(t)
            marks.append(False)
        ts[-1] = target
        t = target
        marks[-1] = True
    return np.asarray(ts), np.flatnonzero(marks)


def stage_coefficients(ball, alpha: float, nu: float, ts):
    """P and Q of b = a / t^alpha at the three RK4 stages of the steps ts,
    each stage evaluated on its own: two (3, n) arrays."""
    steps = np.diff(ts)
    P, Q = [], []
    for x in (ts[:-1], ts[:-1] + 0.5 * steps, ts[1:]):
        rho, rho1, _ = ball.rho.eval(x)
        h = np.asarray(ball.drift.h(x), dtype=float)
        c1r_over_t = (ball.m - 1) * ((x * rho1 - rho) / (x * rho)) / x
        S = ((rho - x) / (x * rho)) * ((rho + x) / (x * rho))
        P.append((2.0 * alpha + ball.m - 1.0) / x + x * c1r_over_t - h)
        Q.append(alpha * (c1r_over_t - h / x) + nu * S)
    return np.array(P), np.array(Q)


def ring_averaged_lambda(A, n_t: int, n_theta: int) -> float:
    """Exact discrete principal eigenvalue of a rotation-invariant disk operator.

    When J and Vt do not depend on theta and Vtheta is constant on each
    ring, the ring-major operator A maps theta-constant vectors to
    theta-constant vectors: the antipodal ghost of the first ring lies in
    the same ring, and a centred angular difference of a constant is 0.
    So the principal (positive) eigenvector is theta-constant, and its
    eigenvalue is the lowest of the n_t x n_t ring-averaged matrix
    R = P^T A P / n_theta, P the ring indicator.  R is tridiagonal with
    off-diagonal pairs of one sign, so it is similar to a symmetric
    tridiagonal matrix with the same diagonal and off-diagonal products.
    The ring sums of A's doubles are formed in 60-digit `decimal`
    arithmetic (`Decimal(float)` is exact), and the lowest eigenvalue is
    found by Sturm bisection on them: the number of negative pivots
    q_i = d_i - x - c_(i-1) / q_(i-1) of T - x I (c the off-diagonal
    products) is the number of eigenvalues below x.  Bisection stops when
    both ends round to one double.
    """
    with decimal.localcontext(decimal.Context(prec=60)):
        C = A.tocoo()
        ring_a, ring_b = C.row // n_theta, C.col // n_theta
        if np.any(np.abs(ring_a - ring_b) > 1):
            raise ValueError("ring-averaged operator is not a tridiagonal matrix")
        # rings repeat their coefficients: convert each distinct value once
        entries, counts = np.unique(np.column_stack([ring_a, ring_b, C.data]), axis=0,
                                    return_counts=True)
        sums = {}
        for (i, j, x), m in zip(entries.tolist(), counts.tolist()):
            sums[int(i), int(j)] = sums.get((int(i), int(j)), 0) + m * decimal.Decimal(x)
        zero = decimal.Decimal(0)
        d = [sums.get((i, i), zero) / n_theta for i in range(n_t)]
        c = [sums.get((i, i + 1), zero) * sums.get((i + 1, i), zero) / (n_theta * n_theta)
             for i in range(n_t - 1)]
        if any(x <= 0 for x in c):
            raise ValueError("ring-averaged operator is not a symmetrizable tridiagonal matrix")

        def above_lowest(x):
            """Whether a pivot of T - x I is negative: x is above an eigenvalue."""
            q = decimal.Decimal(1)
            for i in range(n_t):
                q = d[i] - x - (c[i - 1] / q if i else 0)
                if q < 0:
                    return True
                q = q or decimal.Decimal("1e-200")
            return False

        # Gershgorin interval of the symmetric form
        off = [x.sqrt() for x in c] + [zero]
        radius = [off[i] + (off[i - 1] if i else zero) for i in range(n_t)]
        lo = min(di - ri for di, ri in zip(d, radius))
        hi = max(di + ri for di, ri in zip(d, radius))
        while float(lo) != float(hi):
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            if above_lowest(mid):
                hi = mid
            else:
                lo = mid
        return float(hi)


def _coo_faces(p, radial, angular):
    """(a, b, fa, fb) per face family: radial (j, j+1), angular (l, l+1) with wrap."""
    idx = np.arange(p.grid.size).reshape(p.grid.n_t, p.grid.n_theta)
    return [(idx[:-1, :].ravel(), idx[1:, :].ravel(),
             radial[:-1, :].ravel(), radial[1:, :].ravel()),
            (idx.ravel(), np.roll(idx, -1, axis=1).ravel(),
             angular.ravel(), np.roll(angular, -1, axis=1).ravel())]


def _coo_csr(rows, cols, vals, n):
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def coo_stiffness(p, cellweight=None, dirichlet=True):
    """Weighted stiffness: each face adds w to both diagonals and -w to both couplings."""
    dt, dth = p.grid.dt, p.grid.dtheta
    W = np.ones_like(p.J) if cellweight is None else np.asarray(cellweight, dtype=float)
    (ra, rb, rfa, rfb), (aa, ab, afa, afb) = _coo_faces(p, W * p.J, W / p.J)
    rows, cols, vals = [], [], []
    for a, b, w in ((ra, rb, 0.5 * (rfa + rfb) * dth / dt),
                    (aa, ab, 0.5 * (afa + afb) * dt / dth)):
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [w, w, -w, -w]
    if dirichlet:
        WJ = W * p.J
        face = np.maximum(1.5 * WJ[-1, :] - 0.5 * WJ[-2, :], 0.5 * np.minimum(WJ[-1, :], WJ[-2, :]))
        wall = np.arange(p.grid.size - p.grid.n_theta, p.grid.size)
        rows.append(wall)
        cols.append(wall)
        vals.append(2.0 * face * dth / dt)
    return _coo_csr(rows, cols, vals, p.grid.size)


def _coo_fluxes(p, cellweight):
    W = np.asarray(cellweight, dtype=float)
    return zip(_coo_faces(p, W * p.Vt * p.J, W * p.Vtheta * p.J), (p.grid.dtheta, p.grid.dt))


def coo_advection(p, cellweight):
    rows, cols, vals = [], [], []
    for (a, b, fa, fb), h in _coo_fluxes(p, cellweight):
        qa, qb = 0.5 * fa * h, 0.5 * fb * h
        rows += [b, b, a, a]
        cols += [a, b, a, b]
        vals += [qa, qb, -qa, -qb]
    return _coo_csr(rows, cols, vals, p.grid.size)


def add_at_drift_load(p, cellweight):
    load = np.zeros(p.grid.size)
    for (a, b, fa, fb), h in _coo_fluxes(p, cellweight):
        c = 0.5 * (fa + fb) * h
        np.add.at(load, b, c)
        np.add.at(load, a, -c)
    return load


def coo_drift_matrix(p):
    """Centered drift differences, with the antipodal ghost and the wall diagonal."""
    idx = np.arange(p.grid.size).reshape(p.grid.n_t, p.grid.n_theta)
    cr = p.Vt / (2.0 * p.grid.dt)
    rows = [idx[0, :], idx[-1, :]]
    cols = [np.roll(idx[0, :], p.grid.n_theta // 2), idx[-1, :]]
    vals = [-cr[0, :], -cr[-1, :]]
    for a, b, fa, fb in _coo_faces(p, cr, p.Vtheta / (2.0 * p.grid.dtheta)):
        rows += [a, b]
        cols += [b, a]
        vals += [fa, -fb]
    return _coo_csr(rows, cols, vals, p.grid.size)


def coo_operator(p):
    """diag(1/vol) K + D as scipy sums it: zeros dropped."""
    vol = (p.J * p.grid.dt * p.grid.dtheta).ravel()
    return (sp.diags(1.0 / vol) @ coo_stiffness(p) + coo_drift_matrix(p)).tocsr()


def fancy_grid_order(mat, order):
    """P mat P^T in CSC by fancy indexing, P the identity's rows in `order`."""
    mat = sp.csc_matrix(mat)
    return mat[:, order][order, :].tocsc()

"""Solvers for truncated-nuclear-norm low-rank recovery.

Three inner solvers handle the convex model with a fixed truncation pair
(L, R): an ADMM splitting for the equality/ball-constrained models, an
accelerated proximal gradient method for the penalized model, and a
block-matrix ADMM with adaptive penalty that collapses the two constraints of
the ADMM splitting into one. Each inner solver is a generator of update
steps run by one shared loop, `_iterate`, which keeps the trace and applies
the divergence guard, the stop test and the iteration cap. The generator
`lrisd_stages` alternates rank estimation on the current recovery with inner
solves, one stage at a time, until the estimate stabilizes; `lrisd` runs it.
Each stage starts from the last stage's recovery, and each refit's inner
solve from the last refit's iterates. `solve_with_rank` alone moves a stage
into the coefficients of the operator's transform T and back; a `tnnr_*`
call on a `PartialDct2D` itself applies T in every iteration.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import TruncationPair, _check_rank_arg, _shrink_factors, nuclear_norm, truncation_pair
from .operators import LinearMap, _as_measurement, _nearest_in_ball, _norm_parts, project_ball
from .sve import SveConfig, SveProfile, estimate_rank

__all__ = [
    "SolverConfig",
    "StageTrace",
    "SolverDivergence",
    "tnnr_admm",
    "tnnr_apgl",
    "tnnr_admmap",
    "objective",
    "solve_with_rank",
    "lrisd",
    "lrisd_stages",
    "momentum_step",
    "INNER_SOLVERS",
    "ADMM_BETA",
    "ADMMAP_BETA0",
]

# Fixed constants of the inner solvers: tnnr_admm's over-relaxation factor,
# and the adaptive-penalty rule beta <- min(BETA_MAX, RHO0 * beta) of
# tnnr_admmap, which grows beta whenever the scaled iterate change drops below
# EPS_ADAPT.
# Default penalties: tnnr_admm's fixed beta and tnnr_admmap's starting beta.
# beta and EPS_ADAPT are in the units of the normalized data b/c that every
# inner solve runs on (see _normalized). ADMM_BETA was chosen by a sweep over
# the benchmark workloads; ADMMAP_BETA0 and EPS_ADAPT are the earlier values
# in the units of b, 1e-3 each, at the c = 5 of the mask512-admmap workload.
# ALPHA was chosen by a sweep over the admm workloads and the criterion-10
# composites (1 is the plain ADMM).
ALPHA = 1.5
BETA_MAX = 1e6
RHO0 = 1.9
EPS_ADAPT = 5e-3
ADMM_BETA = 0.14
ADMMAP_BETA0 = 0.005


@dataclass(frozen=True)
class SolverConfig:
    """Scalar knobs shared by the inner solvers and the outer loop; the only
    source of each setting the solvers read, checked once and then frozen.

    beta is the ADMM penalty (also the initial penalty of the adaptive
    variant, so at most BETA_MAX) in units of 1/c, c = ||b||/sqrt(p): the
    solvers run on b/c. None picks the solver's own constant, ADMM_BETA or
    ADMMAP_BETA0. mu weighs the data-fit term of the penalized model
    (tnnr_apgl) and delta is the measurement-ball radius of the constrained
    models (tnnr_admm, tnnr_admmap; 0 = equality constraint), both in the
    units of b.
    inner_tol bounds the per-iteration squared relative change inside a
    solver, outer_tol the same quantity across truncation-pair refits.
    """

    beta: float | None = None
    mu: float = 1.0
    delta: float = 0.0
    inner_tol: float = 1e-4
    outer_tol: float = 1e-2
    max_inner_iters: int = 5000
    max_refit_iters: int = 30

    def __post_init__(self):
        if self.beta is not None and not 0 < self.beta <= BETA_MAX:
            raise ValueError(f"beta must lie in (0, {BETA_MAX:g}], got {self.beta}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
        if not (0 < self.inner_tol < math.inf and 0 < self.outer_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_inner_iters < 1 or self.max_refit_iters < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class StageTrace:
    """Per-stage diagnostics: one row per inner iteration plus per-refit
    summaries, in the units of b. `objective` holds ||X||_* - Tr(L X R^T) at
    every iteration; `beta` holds the penalty in use, beta/c for a setting
    beta (the data-fit weight mu for the gradient solver, which has no
    penalty)."""

    stage: int = 0
    rank: int = 0
    l: list = field(default_factory=list)
    k: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    l_change: list = field(default_factory=list)
    converged: bool = False
    sve: SveProfile | None = None

    def record(self, l: int, k: int, obj: float, resid: float, beta: float) -> None:
        self.l.append(l)
        self.k.append(k)
        self.objective.append(obj)
        self.residual.append(resid)
        self.beta.append(beta)

    def rows(self):
        """Yield (stage, l, k, objective, residual, beta) tuples."""
        for i in range(len(self.k)):
            yield (self.stage, self.l[i], self.k[i], self.objective[i],
                   self.residual[i], self.beta[i])

    def absorb(self, other: "StageTrace", l: int) -> None:
        """Fold a single-solve trace into this stage as refit step l."""
        for row in zip(other.k, other.objective, other.residual, other.beta):
            self.record(l, *row)
        self.inner_iters.append(len(other.k))

    @property
    def total_inner_iters(self) -> int:
        return len(self.k)


class SolverDivergence(RuntimeError):
    """Raised when an inner solve blows up; carries the trace so far."""

    def __init__(self, message: str, trace: StageTrace):
        super().__init__(message)
        self.trace = trace


def objective(x, pair: TruncationPair) -> float:
    """Model objective ||X||_* - Tr(L X R^T)."""
    return nuclear_norm(x) - pair.trace_term(np.asarray(x, dtype=np.float64))


def momentum_step(tau: float) -> float:
    """Next momentum parameter: (1 + sqrt(1 + 4 tau^2)) / 2."""
    return (1.0 + math.sqrt(1.0 + 4.0 * tau * tau)) / 2.0


def _normalized(a: LinearMap, b, cfg: SolverConfig) -> tuple[float, np.ndarray, SolverConfig]:
    """The data scale c = ||b||/sqrt(p) (1 for b = 0), b/c and cfg in the
    units of b/c: delta/c, and mu*c, which keeps the penalized model's
    minimizer at X/c. beta is set in these units already. delta/c is capped
    at the float maximum, a ball that still holds every point the data reach;
    a mu*c outside (0, inf) is an error, as a capped mu weighs another model."""
    b = _as_measurement(b, a.p)
    c = math.ldexp(*_norm_parts(b, (math.sqrt(a.p), 0))) or 1.0
    if not 0 < (mu := cfg.mu * c) < math.inf:
        raise ValueError(f"mu*c = {mu:g} is outside (0, inf) for mu={cfg.mu:g}, c={c:g}")
    return c, b / c, replace(cfg, delta=min(cfg.delta / c, np.finfo(float).max), mu=mu)


def _iterate(name: str, steps, a: LinearMap, b, pair: TruncationPair,
             cfg: SolverConfig, carry: dict | None = None) -> tuple[np.ndarray, StageTrace]:
    """The iteration loop the three inner solvers share.

    Every solve runs on the normalized data of `_normalized`, so that one
    penalty and the divergence guard's floor suit data of any scale. It
    returns c times the last X and records the trace in the units of b.
    `steps(a, b, g, x0, cfg, start)` is a solver's step generator, run on
    b/c with g = L^T R. With start None it starts at x0 = A*(b/c): it starts
    its other iterates from copies of x0 and drops x0 itself once it has no
    further use for it, so that x0 is not held for the whole solve. (Sharing
    x0 would be as correct, but the changed heap layout made glibc trim and
    refault the 300x300 temporaries of admm every iteration.) Once per
    iteration it yields the new X, its thresholded singular values, the
    squared constraint gap (0 for a model without one), the penalty in use
    and a dict of its other iterates. Each shrink is handed the thresholded
    values of the one before it in the same generator, from which
    `_shrink_factors` picks its eigensolver. The loop records the trace row,
    guards against divergence and stops once both the squared relative
    X-change and the gap, each divided by ||b||^2, fall below inner_tol, or at
    max_inner_iters.

    `carry`, when given, hands one solve's end to the next solve on the same
    b (the refits of `solve_with_rank`). A solve leaves its last X and the
    dict of its last iterates there, in the units of b/c, which do not
    change between solves on one b and one A. A solve given a nonempty carry
    starts from them instead of A*(b/c): x0 is the last X, from which the
    first X-change is taken, and `start` holds the iterates. The carry is
    emptied as the solve starts, so that the old iterates die as the new
    ones replace them.
    """
    c, b, cfg = _normalized(a, b, cfg)
    start = dict(carry) if carry else None
    x = start.pop("X") if start else a.adjoint(b)
    if carry:
        carry.clear()
    g = pair.correction()
    denom = float(b @ b) or 1.0
    trace = StageTrace(rank=pair.r)
    obj_ref = None
    iterations = zip(range(1, cfg.max_inner_iters + 1), steps(a, b, g, x, cfg, start))
    del start
    for k, (x_new, s_shrunk, gap, beta, state) in iterations:
        obj = float(s_shrunk.sum() - np.vdot(x_new, g))
        resid = float(np.linalg.norm(a.apply(x_new) - b))
        trace.record(1, k, c * obj, c * resid, beta / c)
        if obj_ref is None:
            obj_ref = obj
        if not np.isfinite(obj) or obj > 1e6 * max(obj_ref, 1.0):
            raise SolverDivergence(f"{name} diverged at iteration {k}: "
                                   f"objective {trace.objective[-1]:.3e}", trace)
        change = float(np.linalg.norm(x_new - x, "fro") ** 2) / denom
        x = x_new
        if change <= cfg.inner_tol and gap / denom <= cfg.inner_tol:
            trace.converged = True
            break
    trace.inner_iters.append(trace.total_inner_iters)
    if carry is not None:
        carry.update(state, X=x)
    return c * x, trace


def _admm_steps(a, b, g, x, cfg, start=None):
    beta = cfg.beta or ADMM_BETA
    y, z = (start["Y"], start["Z"]) if start else (x.copy(), x.copy())
    del x, start  # y and z are all the loop needs
    s_shrunk = None
    while True:
        x_new, s_shrunk = _shrink_factors(y + z / beta, 1.0 / beta, s_shrunk)
        # over-relaxation: the Y and Z updates see X mixed with the last Y
        x_hat = ALPHA * x_new + (1.0 - ALPHA) * y
        y = project_ball(a, x_hat + (g - z) / beta, b, cfg.delta)
        z = z - beta * (x_hat - y)
        del x_hat  # dies within the iteration, not held across the yield
        gap = float(np.linalg.norm(x_new - y, "fro") ** 2)
        yield x_new, s_shrunk, gap, beta, {"Y": y, "Z": z}


def tnnr_admm(a: LinearMap, b, pair: TruncationPair, cfg: SolverConfig | None = None,
              carry: dict | None = None) -> tuple[np.ndarray, StageTrace]:
    """ADMM for the equality- (cfg.delta = 0) or ball-constrained model
    min ||X||_* - Tr(L X R^T) s.t. ||A(X) - b|| <= cfg.delta.

    Iterates X <- shrink(Y + Z/beta, 1/beta), X^ <- ALPHA X + (1 - ALPHA) Y,
    Y <- project_ball(X^ + (L^T R - Z)/beta), Z <- Z - beta (X^ - Y) on the
    normalized data b/c, with beta = cfg.beta or ADMM_BETA in units of 1/c:
    ADMM over-relaxed by ALPHA (Eckstein and Bertsekas 1992; Boyd et al.
    2011, section 3.4.3), where the primal residual X - Y is still the gap.
    It starts all three at the matrix form of b/c, or, given a nonempty
    `carry` (see `_iterate`), where the solve that filled it ended. Stops
    once both the squared relative X-change and the squared relative X-Y gap
    fall below inner_tol; the gap condition keeps the change test from
    firing inside the shrinkage dead zone before the dual variable has grown
    to data scale. The returned iterate is projected onto the measurement
    ball so the feasibility contract holds even at the iteration cap.
    """
    cfg = cfg or SolverConfig()
    x, trace = _iterate("tnnr_admm", _admm_steps, a, b, pair, cfg, carry)
    return project_ball(a, x, b, cfg.delta), trace


def _apgl_steps(a, b, g, x, cfg, start=None):
    step = 1.0 / cfg.mu
    y, tau = (start["Y"], start["tau"]) if start else (x.copy(), 1.0)
    del start
    s_shrunk = None
    while True:
        grad = -g + cfg.mu * a.adjoint(a.apply(y) - b)
        x_new, s_shrunk = _shrink_factors(y - step * grad, step, s_shrunk)
        tau_new = momentum_step(tau)
        y = x_new + ((tau - 1.0) / tau_new) * (x_new - x)
        yield x_new, s_shrunk, 0.0, cfg.mu, {"Y": y, "tau": tau_new}
        x, tau = x_new, tau_new


def tnnr_apgl(a: LinearMap, b, pair: TruncationPair, cfg: SolverConfig | None = None,
              carry: dict | None = None) -> tuple[np.ndarray, StageTrace]:
    """Accelerated proximal gradient for the penalized model
    min ||X||_* - Tr(L X R^T) + (mu/2) ||A(X) - b||^2, with mu = cfg.mu.

    The smooth part F(Y) = -Tr(L Y R^T) + (mu/2)||A(Y) - b||^2 has gradient
    -L^T R + mu A*(A(Y) - b) and Lipschitz constant mu for a tight frame, so
    the proximal step size is fixed at 1/mu while the momentum parameter
    follows tau <- (1 + sqrt(1 + 4 tau^2)) / 2 from tau = 1. It runs on b/c
    with the weight mu*c, the same model. Given a nonempty `carry` (see
    `_iterate`) it goes on from the last solve's X, Y and tau. Stops once the
    squared relative X-change falls below inner_tol.
    """
    return _iterate("tnnr_apgl", _apgl_steps, a, b, pair, cfg or SolverConfig(), carry)


def _admmap_steps(a, b, g, x, cfg, start=None):
    if start:
        y, z11, z22, xi = start["Y"], start["z11"], start["z22"], start["xi"]
    else:
        # the slack starts at 0, the ball point nearest A(A*(b)) - b = 0
        y, z11, z22, xi = x.copy(), np.zeros(a.shape), np.zeros(a.p), np.zeros(a.p)
    del start
    # a warm start, too, begins at the starting penalty: one that kept the
    # last solve's grown beta would stop on a vanishing X-change at once
    beta = cfg.beta or ADMMAP_BETA0
    s_shrunk = None
    while True:
        x_new, s_shrunk = _shrink_factors(y + z11 / beta, 1.0 / beta, s_shrunk)
        # closed form for (I + A*A) Y = X + (L^T R - z11)/beta + A*(b + xi + z22/beta),
        # its two adjoints merged into one by linearity
        h = g - z11
        y_new = x_new + h / beta + a.adjoint(
            beta * (b + xi) + z22 - a.apply(h + beta * x_new)) / (2.0 * beta)
        z11 = z11 - beta * (x_new - y_new)
        ay = a.apply(y_new)
        z22 = z22 - beta * (ay - b - xi)
        xi = _nearest_in_ball(ay - b - z22 / beta, cfg.delta)
        gap = max(float(np.linalg.norm(x_new - y_new, "fro")),
                  float(np.linalg.norm(ay - b - xi))) ** 2
        yield x_new, s_shrunk, gap, beta, {"Y": y_new, "z11": z11, "z22": z22, "xi": xi}
        c_norm = float(np.linalg.norm(b + xi))
        step = max(float(np.linalg.norm(x_new - x, "fro")),
                   float(np.linalg.norm(y_new - y, "fro")))
        rho = RHO0 if beta * step / max(c_norm, np.finfo(float).tiny) < EPS_ADAPT else 1.0
        x, y = x_new, y_new
        beta = min(BETA_MAX, rho * beta)


def tnnr_admmap(a: LinearMap, b, pair: TruncationPair, cfg: SolverConfig | None = None,
                carry: dict | None = None) -> tuple[np.ndarray, StageTrace]:
    """Block-matrix ADMM with adaptive penalty for the constrained models.

    The two constraints X = Y and A(Y) in the delta-ball around b are folded
    into one block equation P(X) + Q(Y) = C, whose Y-subproblem normal
    equation (I + A*A) Y = RHS is solved in closed form through the
    tight-frame inverse identity. The multiplier block Z has only its (1,1)
    and (2,2) blocks active; the slack xi (measurement space) is the point
    of the cfg.delta-ball nearest its argument (project_ball's P), so 0 for
    the equality model (delta = 0). The penalty starts at cfg.beta or
    ADMMAP_BETA0, in units of 1/c as for tnnr_admm, and grows by RHO0, up to
    BETA_MAX, whenever the scaled iterate change drops below EPS_ADAPT.
    Given a nonempty `carry` (see `_iterate`), the solve starts from the last
    solve's X, Y, multipliers and slack, but from the starting penalty.
    Stops once the squared relative X-change and the larger of the two
    squared relative constraint gaps fall below inner_tol; the returned
    iterate is projected onto the measurement ball.
    """
    cfg = cfg or SolverConfig()
    x, trace = _iterate("tnnr_admmap", _admmap_steps, a, b, pair, cfg, carry)
    return project_ball(a, x, b, cfg.delta), trace


INNER_SOLVERS = ("admm", "apgl", "admmap")


def _run_inner(name: str, a: LinearMap, b, pair: TruncationPair, cfg: SolverConfig,
               carry: dict | None = None):
    solvers = {"admm": tnnr_admm, "apgl": tnnr_apgl, "admmap": tnnr_admmap}
    if name not in solvers:
        raise ValueError(f"unknown inner solver {name!r}, expected one of {INNER_SOLVERS}")
    return solvers[name](a, b, pair, cfg, carry)


def solve_with_rank(a: LinearMap, b, r: int, inner: str = "admm",
                    cfg: SolverConfig | None = None,
                    x0: np.ndarray | None = None) -> tuple[np.ndarray, StageTrace]:
    """Solve the truncation-rank-r model for a fixed r.

    The stage runs on P_Omega alone (`a.sampling`), in the coefficients T(X)
    of A = P_Omega T: T keeps the model (see `LinearMap`), so T is applied
    once as the stage starts, to x0, and T^-1 once as it returns. Starting
    from x0 (by default the matrix form of b), alternates extracting the
    truncation pair from the current iterate with an inner solve until the
    squared relative change across refits, the first taken from x0, drops
    below outer_tol. The first inner solve starts from the matrix form of
    b/c, and each later one where the one before it ended (the `carry` of
    `_iterate`): the data do not change between refits, only the pair. The
    stage counts as converged only if, in addition, its last inner solve
    converged: a capped inner solve can pass the outer test by barely moving.
    r = 0 is the plain nuclear-norm model: its pair does not depend on the
    iterate, so a single inner solve suffices and its trace, convergence flag
    included, is returned. r and x0 are checked at every rank.
    """
    cfg = cfg or SolverConfig()
    b = _as_measurement(b, a.p)
    s = a.sampling
    x_l = s.adjoint(b) if x0 is None else a.transform(a._check_domain(x0))
    r = _check_rank_arg(x_l, r)
    if r == 0:
        x, trace = _run_inner(inner, s, b, TruncationPair.empty(*a.shape), cfg)
        return a.inverse(x), trace
    b_norm = _norm_parts(b) if b.any() else (1.0, 0)
    stage_trace = StageTrace(rank=r)
    carry = {}
    for l in range(1, cfg.max_refit_iters + 1):
        pair = truncation_pair(x_l, r)
        x_next, t = _run_inner(inner, s, b, pair, cfg, carry)
        stage_trace.absorb(t, l)
        change = math.ldexp(*_norm_parts(x_next - x_l, b_norm)) ** 2
        stage_trace.l_change.append(change)
        x_l = x_next
        if change <= cfg.outer_tol:
            stage_trace.converged = t.converged
            break
    return a.inverse(x_l), stage_trace


def lrisd_stages(a: LinearMap, b, inner: str = "admm", sve_cfg: SveConfig | None = None,
                 cfg: SolverConfig | None = None):
    """Multi-stage recovery, yielding (x, trace, profile) as each stage ends.

    Stage 0 solves the nuclear-norm model (empty truncation pair), each later
    stage the fixed-rank model at the rank `trace.sve` estimated on the stage
    before, starting from that stage's recovery: its first truncation pair
    and its first outer change are taken from it, as Iterative Support
    Detection starts each stage from the last one's solution. `profile` is
    the estimate made on x, the last stage's included; it is None only for
    min(m, n) < 3, where fewer than 3 singular values hold no jump to detect
    and stage 0 is kept. The stages end at the sve_cfg.max_outer cap, when
    sve_cfg.stability consecutive estimates agree, or when the first
    estimate is 0 (an empty pair would reproduce stage 0 exactly).
    """
    sve_cfg = sve_cfg or SveConfig()
    kappa = sve_cfg.resolve_kappa(*a.shape)
    estimates: list[int] = []
    profile = x = None
    for stage in range(sve_cfg.max_outer + 1):
        try:
            x, trace = solve_with_rank(a, b, profile.r_hat if stage else 0, inner, cfg, x)
        except SolverDivergence as e:
            e.trace.stage = stage
            raise SolverDivergence(f"stage {stage}: {e}", e.trace) from e
        trace.stage, trace.sve = stage, profile
        profile = (estimate_rank(np.linalg.svd(x, compute_uv=False), kappa)
                   if min(a.shape) >= 3 else None)
        yield x, trace, profile
        estimates.append(profile.r_hat if profile else 0)  # None keeps stage 0, as 0 does
        if estimates == [0] or estimates[-sve_cfg.stability:] == estimates[-1:] * sve_cfg.stability:
            return


def lrisd(a: LinearMap, b, inner: str = "admm", sve_cfg: SveConfig | None = None,
          cfg: SolverConfig | None = None) -> tuple[np.ndarray, list[StageTrace]]:
    """`lrisd_stages` run to its end: the last recovery and every stage's
    trace. sve_cfg.max_outer = 0 gives stage 0, the nuclear-norm baseline."""
    traces = []
    for x, trace, _ in lrisd_stages(a, b, inner, sve_cfg, cfg):
        traces.append(trace)
    return x, traces

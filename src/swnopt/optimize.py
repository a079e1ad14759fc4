"""Weight estimation: pick the best of n0 random starting vectors, then run a
bounded local minimization of the chosen divergence.

The objective is a pure function of the weight vector: annotate the
reachability graph, solve for the probabilities of the target's support,
measure the divergence (negative log likelihood, or EMD restricted
to the log's support).  Weights enter only through ratios, so the surface is
scale invariant; optimization happens in log-weight space, which keeps the
weights positive without constraint machinery, and the reported weights are
rescaled so the largest equals one.

The measure picks the local method (:data:`METHODS`):

* ``lh``: ``fd-quasi-newton``, BFGS-style updates fed by central finite
  differences, with a backtracking (Armijo) line search.  The likelihood
  clamps at ``P_CLAMP``; it scores ``INVALID_OBJECTIVE`` only where the
  trace probabilities are beyond float precision (near the weight bounds).
* ``remd``: ``derivative-free``, cyclic coordinate sweeps, each a coarse
  scan refined by golden section, for the kinked EMD surface.

Both stop after ``max_iter`` accepted iterations, when the relative
decrement of the objective falls below ``delta``, or when no improving step
exists.  Every accepted iteration appends to the convergence trace, which is
therefore non-increasing.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError
from .distances import CostMatrix, ZeroModelMass, levenshtein_cost_matrix, log_likelihood_divergence, restricted_emd
from .logs import StochasticLanguage
from .nets import WeightVector, WorkflowNet
from .semantics import ReachabilityGraph, annotate, build_rg
from .unfolding import IllConditioned, PrefixIndex, PrefixProduct

#: The local method each measure is minimized with.
METHODS = {"lh": "fd-quasi-newton", "remd": "derivative-free"}
MEASURES = tuple(METHODS)
STOP_MAX_ITER = "MaxIter"
STOP_DELTA = "DeltaConverged"
STOP_NO_IMPROVEMENT = "NoImprovement"

#: Value standing in for a point the objective cannot score (see :func:`_score`).
INVALID_OBJECTIVE = 1e12

#: Random starting weights are drawn uniformly from (INIT_LOW, 1] per transition.
INIT_LOW = 1e-3

#: The local search keeps every weight within these bounds.
WEIGHT_BOUNDS = (1e-9, 1e9)

#: Grid points of the coarse scan that brackets each coordinate's minimum.
_SCAN_POINTS = 12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class AllStartsInvalid(ComputationError):
    """Every random start had zero model mass on the log support."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to minimize: a divergence between a net's language and a target.

    The weight-independent parts of an evaluation are built once here: the
    product of the graph with the target support's prefix trie and, for
    ``remd``, the normalized-Levenshtein cost matrix over that support.
    """

    measure: str
    wn: WorkflowNet
    rg: ReachabilityGraph
    target: StochasticLanguage
    _product: PrefixProduct = field(init=False, repr=False, compare=False)
    _cost: CostMatrix | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not self.target.is_complete:
            raise ValueError("target language must be complete")
        object.__setattr__(self, "_product", PrefixProduct(self.rg, PrefixIndex(self.target.probs)))
        support = tuple(self.target.probs)
        cost = levenshtein_cost_matrix(support, support) if self.measure == "remd" else None
        object.__setattr__(self, "_cost", cost)

    @classmethod
    def for_net(cls, measure: str, wn: WorkflowNet, target: StochasticLanguage) -> "ObjectiveSpec":
        return cls(measure=measure, wn=wn, rg=build_rg(wn), target=target)

    @property
    def n_weights(self) -> int:
        return len(self.wn.net.transitions)


@dataclass(frozen=True)
class OptimizerConfig:
    n0: int = 10
    max_iter: int = 50
    delta: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Weights (rescaled so max(w) == 1), final objective value, and the
    per-iteration convergence trace (non-increasing)."""

    weights: WeightVector
    final_value: float
    iterations: int
    stop_reason: str
    trace: tuple[tuple[int, float], ...]

    def trace_csv(self) -> str:
        lines = ["iteration,value"]
        lines += [f"{i},{v!r}" for i, v in self.trace]
        return "\n".join(lines) + "\n"


def evaluate_objective(spec: ObjectiveSpec, weights: WeightVector | np.ndarray) -> float:
    """Divergence of the net under the given weights; pure in ``weights``."""
    probs = spec._product.probabilities(annotate(spec.rg, weights))
    if spec.measure == "lh":
        return log_likelihood_divergence(spec.target, probs)
    return restricted_emd(spec.target, probs, spec._cost).value


def _score(spec: ObjectiveSpec, weights: np.ndarray) -> float:
    """The objective, with ZeroModelMass and IllConditioned points scored INVALID_OBJECTIVE."""
    try:
        return evaluate_objective(spec, weights)
    except (ZeroModelMass, IllConditioned):
        return INVALID_OBJECTIVE


def _guarded(spec: ObjectiveSpec):
    """Objective over log-weights, scored as in :func:`_score`."""
    return lambda x: _score(spec, np.exp(x))


def draw_starts(spec: ObjectiveSpec, config: OptimizerConfig) -> np.ndarray:
    """The n0 random starting vectors for a seed, one per row."""
    rng = np.random.default_rng(config.seed)
    return rng.uniform(INIT_LOW, 1.0, size=(config.n0, spec.n_weights))


def select_start(spec: ObjectiveSpec, config: OptimizerConfig) -> WeightVector:
    """Best of n0 seeded random draws; ties broken by earliest draw."""
    starts = draw_starts(spec, config)
    values = [_score(spec, row) for row in starts]
    best = min(range(len(values)), key=lambda i: (values[i], i))
    if values[best] >= INVALID_OBJECTIVE:
        raise AllStartsInvalid(f"all {config.n0} starts had zero model mass on the log")
    return WeightVector(tuple(float(v) for v in starts[best]))


def _central_gradient(f, x: np.ndarray) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def _fd_quasi_newton(f, x0, fx0, lo, hi, max_iter, delta):
    n = len(x0)
    x, fx = x0.copy(), fx0
    trace = [(0, fx)]
    h_inv = np.eye(n)
    identity = np.eye(n)
    grad = _central_gradient(f, x)
    stop = STOP_MAX_ITER

    for it in range(1, max_iter + 1):
        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            h_inv = identity.copy()
            direction = -grad
            slope = float(grad @ direction)
        if slope == 0.0:
            stop = STOP_NO_IMPROVEMENT
            break

        step = 1.0
        x_new = f_new = None
        for _ in range(40):
            cand = np.clip(x + step * direction, lo, hi)
            f_cand = f(cand)
            if f_cand < fx + 1e-4 * step * slope or f_cand < fx:
                x_new, f_new = cand, f_cand
                break
            step *= 0.5
        if x_new is None:
            stop = STOP_NO_IMPROVEMENT
            break

        grad_new = _central_gradient(f, x_new)
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            left = identity - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)

        prev, x, fx, grad = fx, x_new, f_new, grad_new
        trace.append((it, fx))
        if fx == 0.0 or (fx > 0.0 and abs(fx - prev) / fx < delta):
            stop = STOP_DELTA
            break

    return x, fx, stop, trace


def _golden_section(g, a, b, tol=1e-6):
    """Golden-section minimum of g on [a, b]; returns (x, g(x))."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > tol:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN * (b - a)
            g2 = g(x2)
    return (x1, g1) if g1 <= g2 else (x2, g2)


def _coordinate_descent(f, x0, fx0, lo, hi, max_iter, delta):
    x, fx = x0.copy(), fx0
    trace = [(0, fx)]
    stop = STOP_MAX_ITER

    for it in range(1, max_iter + 1):
        improved = False
        for i in range(len(x)):

            def g(v, i=i):
                xi = x.copy()
                xi[i] = v
                return f(xi)

            # coarse scan picks the bracket; golden section refines inside it
            grid = np.linspace(lo[i], hi[i], _SCAN_POINTS)
            values = [g(v) for v in grid]
            k = int(np.argmin(values))
            a = grid[max(k - 1, 0)]
            b = grid[min(k + 1, _SCAN_POINTS - 1)]
            v_best, g_best = _golden_section(g, a, b)
            if values[k] < g_best:
                v_best, g_best = grid[k], values[k]
            if g_best < fx:
                x[i] = v_best
                fx = g_best
                improved = True

        if not improved:
            stop = STOP_NO_IMPROVEMENT
            break
        prev = trace[-1][1]
        trace.append((it, fx))
        if fx == 0.0 or (fx > 0.0 and abs(fx - prev) / fx < delta):
            stop = STOP_DELTA
            break

    return x, fx, stop, trace


def minimize(spec: ObjectiveSpec, w0: WeightVector, config: OptimizerConfig) -> OptimizationResult:
    """Local minimization from ``w0`` in log-weight space within
    :data:`WEIGHT_BOUNDS`, by the measure's method."""
    f = _guarded(spec)
    lo = np.full(spec.n_weights, math.log(WEIGHT_BOUNDS[0]))
    hi = np.full(spec.n_weights, math.log(WEIGHT_BOUNDS[1]))
    x0 = np.clip(np.log(np.asarray(w0.values, dtype=np.float64)), lo, hi)
    fx0 = f(x0)

    if METHODS[spec.measure] == "fd-quasi-newton":
        x, fx, stop, trace = _fd_quasi_newton(f, x0, fx0, lo, hi, config.max_iter, config.delta)
    else:
        x, fx, stop, trace = _coordinate_descent(f, x0, fx0, lo, hi, config.max_iter, config.delta)

    weights = np.exp(x)
    weights = weights / weights.max()  # gauge: report with max weight 1
    return OptimizationResult(
        weights=WeightVector(tuple(float(v) for v in weights)),
        final_value=fx,
        iterations=len(trace) - 1,
        stop_reason=stop,
        trace=tuple(trace),
    )


def optimized_weights(spec: ObjectiveSpec, config: OptimizerConfig) -> OptimizationResult:
    """Best-of-n0 start selection followed by local minimization."""
    w0 = select_start(spec, config)
    return minimize(spec, w0, config)

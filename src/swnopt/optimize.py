"""Weight estimation: pick the best of n0 random starting vectors, then run a
bounded local minimization of the chosen divergence.

The objective is a pure function of the weight vector: annotate the
reachability graph, solve for the probabilities of the target's support,
measure the divergence (negative log likelihood, or EMD restricted
to the log's support).  Weights enter only through ratios, so the surface is
scale invariant; optimization happens in log-weight space, within the log of
:data:`WEIGHT_BOUNDS` per weight, and the reported weights are rescaled so
the largest equals one.

Every point is scored by one call to :func:`evaluate_objective`, which gives
the value or, with ``gradient=True`` (lh), the value and its gradient over
log-weights.  :func:`_score` is its one guard: it scores a point the
objective cannot score ``INVALID_OBJECTIVE``.  Both :func:`select_start` and
:func:`minimize` score through it, and the start of the minimization is
scored once, by scipy's first call.

The measure picks the local method (:data:`METHODS`), one call to
:func:`scipy.optimize.minimize` with these bounds:

* ``lh``: ``L-BFGS-B`` (Byrd, Lu, Nocedal & Zhu 1995), with the exact
  gradient over log-weights: the trace probabilities' LU factor gives
  ∂lh/∂p for every arc by one transposed (adjoint) solve, chained through
  the per-state normalization of the weights, so a value and its gradient
  cost one factorization.  The likelihood clamps each trace at ``P_CLAMP``
  (a clamped trace contributes no gradient); it scores ``INVALID_OBJECTIVE``,
  with a zero gradient, only where the model's mass on the whole log is
  below ``MASS_FLOOR`` (as rEMD does), the trace probabilities are beyond
  float precision (near the weight bounds) or the gradient is not finite.
  Such a point is never an iterate: the start is valid and L-BFGS-B accepts
  only points that lower the value, so it can only be a line-search trial,
  which the line search rejects and shortens.
* ``remd``: ``Powell`` (Powell 1964), derivative-free conjugate directions,
  for the kinked EMD surface, where a subgradient method stalls at the kinks.

Both stop after ``max_iter`` iterations or when scipy's ``ftol`` test,
given ``delta``, holds for the relative decrement of the objective.  The
result is the lowest value the minimization evaluated, which may lie below
the method's last iterate (Powell under bounds can step back up).  The
convergence trace starts with the value at the start and appends the best
value seen so far after each iteration, plus one last row when an
evaluation after the last iteration improved on it, so it is non-increasing
and ends at the final value.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import ComputationError
from .distances import (
    CostMatrix,
    ZeroModelMass,
    levenshtein_cost_matrix,
    log_likelihood_divergence,
    log_likelihood_gradient,
    restricted_emd,
)
from .logs import StochasticLanguage
from .nets import WorkflowNet
from .semantics import ReachabilityGraph, annotate, build_rg, log_weight_gradient
from .unfolding import IllConditioned, PrefixProduct

#: The scipy method each measure is minimized with.
METHODS = {"lh": "L-BFGS-B", "remd": "Powell"}
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


class AllStartsInvalid(ComputationError):
    """Every random start was invalid: zero model mass on the log support, or
    trace probabilities too ill-conditioned to solve for."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to minimize: a divergence between a net's language and a target.

    The weight-independent parts of an evaluation are built once here: the
    product of the graph with the target support's prefix trie and, for
    ``remd``, the normalized-Levenshtein cost matrix over that support.
    """

    measure: str
    rg: ReachabilityGraph
    target: StochasticLanguage
    _product: PrefixProduct = field(init=False, repr=False, compare=False)
    _cost: CostMatrix | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not self.target.is_complete:
            raise ValueError("target language must be complete")
        object.__setattr__(self, "_product", PrefixProduct(self.rg, self.target.probs))
        support = tuple(self.target.probs)
        cost = levenshtein_cost_matrix(support, support) if self.measure == "remd" else None
        object.__setattr__(self, "_cost", cost)

    @classmethod
    def for_net(cls, measure: str, wn: WorkflowNet, target: StochasticLanguage) -> "ObjectiveSpec":
        return cls(measure=measure, rg=build_rg(wn), target=target)

    @property
    def n_weights(self) -> int:
        return len(self.rg.wn.net.transitions)


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
    """Weights (a read-only array in transition order, rescaled so max(w) == 1),
    final objective value, and the per-iteration convergence trace (non-increasing)."""

    weights: np.ndarray
    final_value: float
    iterations: int
    stop_reason: str
    trace: tuple[tuple[int, float], ...]

    def trace_csv(self) -> str:
        lines = ["iteration,value"]
        lines += [f"{i},{v!r}" for i, v in self.trace]
        return "\n".join(lines) + "\n"


def evaluate_objective(spec: ObjectiveSpec, weights, gradient: bool = False) -> float | tuple[float, np.ndarray]:
    """Divergence of the net under ``weights`` (a float sequence in transition
    order, as for :func:`annotate`); pure in ``weights``.

    With ``gradient`` (lh only) it returns ``(value, ∂value/∂log w)``, both
    from the one LU factor of the trace-probability solve.
    """
    if gradient and spec.measure != "lh":
        raise ValueError(f"{spec.measure} has no gradient; only lh does")
    arg = annotate(spec.rg, weights)
    probs, pullback = spec._product.probabilities_with_pullback(arg)
    if spec.measure == "remd":
        return restricted_emd(spec.target, probs, spec._cost).value
    value = log_likelihood_divergence(spec.target, probs)
    if not gradient:
        return value
    return value, log_weight_gradient(arg, pullback(log_likelihood_gradient(spec.target, probs)))


def _score(spec: ObjectiveSpec, weights: np.ndarray, gradient: bool = False) -> float | tuple[float, np.ndarray]:
    """:func:`evaluate_objective`, with a point it cannot score (ZeroModelMass,
    IllConditioned, or a gradient that is not finite) scored INVALID_OBJECTIVE,
    with a zero gradient when one was asked for."""
    invalid = (INVALID_OBJECTIVE, np.zeros(spec.n_weights)) if gradient else INVALID_OBJECTIVE
    try:
        scored = evaluate_objective(spec, weights, gradient=gradient)
    except (ZeroModelMass, IllConditioned):
        return invalid
    return invalid if gradient and not np.all(np.isfinite(scored[1])) else scored


def draw_starts(spec: ObjectiveSpec, config: OptimizerConfig) -> np.ndarray:
    """The n0 random starting vectors for a seed, one per row."""
    rng = np.random.default_rng(config.seed)
    return rng.uniform(INIT_LOW, 1.0, size=(config.n0, spec.n_weights))


def select_start(spec: ObjectiveSpec, config: OptimizerConfig) -> np.ndarray:
    """Best of n0 seeded random draws; ties broken by earliest draw."""
    starts = draw_starts(spec, config)
    values = [_score(spec, row) for row in starts]
    best = min(range(len(values)), key=lambda i: (values[i], i))
    if values[best] >= INVALID_OBJECTIVE:
        raise AllStartsInvalid(
            f"all {config.n0} starts had zero model mass on the log or ill-conditioned trace probabilities"
        )
    return starts[best]


def minimize(spec: ObjectiveSpec, w0, config: OptimizerConfig) -> OptimizationResult:
    """Local minimization from the weights ``w0`` (transition order) in log-weight space within
    :data:`WEIGHT_BOUNDS`, by the measure's method; returns the best point evaluated."""
    with_gradient = spec.measure == "lh"
    lo, hi = math.log(WEIGHT_BOUNDS[0]), math.log(WEIGHT_BOUNDS[1])
    x0 = np.clip(np.log(np.asarray(w0, dtype=np.float64)), lo, hi)
    best = {"value": math.inf, "x": x0}
    trace = []

    def objective(x):
        out = _score(spec, np.exp(x), gradient=with_gradient)
        fx = out[0] if with_gradient else out
        if fx < best["value"]:
            best.update(value=fx, x=x.copy())
        if not trace:  # scipy's first call scores x0
            trace.append((0, fx))
        return out

    def callback(intermediate_result):  # this name selects scipy's one-call-per-iteration OptimizeResult form
        trace.append((len(trace), best["value"]))

    res = scipy.optimize.minimize(
        objective,
        x0,
        method=METHODS[spec.measure],
        jac=with_gradient or None,
        bounds=[(lo, hi)] * spec.n_weights,
        callback=callback,
        options={"maxiter": config.max_iter, "ftol": config.delta},
    )
    if best["value"] < trace[-1][1]:
        trace.append((len(trace), best["value"]))

    if len(trace) - 1 >= config.max_iter:
        stop = STOP_MAX_ITER
    elif res.success:
        stop = STOP_DELTA
    else:
        stop = STOP_NO_IMPROVEMENT
    weights = np.exp(best["x"])
    weights = weights / weights.max()  # gauge: report with max weight 1
    weights.flags.writeable = False
    return OptimizationResult(
        weights=weights,
        final_value=best["value"],
        iterations=len(trace) - 1,
        stop_reason=stop,
        trace=tuple(trace),
    )


def optimized_weights(spec: ObjectiveSpec, config: OptimizerConfig) -> OptimizationResult:
    """Best-of-n0 start selection followed by local minimization."""
    w0 = select_start(spec, config)
    return minimize(spec, w0, config)

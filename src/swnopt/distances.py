"""Divergences between stochastic languages.

* ``log_likelihood_divergence``: negative expected log model probability
  under the target distribution (natural log).  Minimizing it is maximum
  likelihood estimation; its floor is the target's empirical entropy.  Model
  probabilities are clamped at ``P_CLAMP`` before the log so a missed trace
  yields a large finite penalty instead of an infinite one; a model with
  (almost) no mass on the whole support has no value, as for rEMD.
* ``emd``: earth mover's distance as an exact transportation linear program,
  solved with HiGHS's dual simplex; with normalized Levenshtein costs the
  value lies in [0, 1] and is interpretable as "how much probability must
  move how far".  Each :class:`CostMatrix` holds one HiGHS model with its
  costs and marginal constraints; a solve only rewrites the row bounds to
  the two marginals.  Per-call set-up, not pivoting, dominates these small
  LPs, so this is what makes rEMD cheap enough to optimize.  Every solve
  starts cold, from no basis: a warm start would save a little more but
  make a value depend on which LPs the model solved before.  HiGHS runs
  without presolve: presolve wrongly declares a transportation system
  infeasible when a marginal entry lies below its feasibility tolerance
  (~1e-7), and these LPs solve no slower without it.
* ``restricted_emd``: EMD after restricting the model language to the
  target's support and renormalizing; cheap enough to drive optimization.
* ``truncated_emd``: EMD against the model language ``unfold_language``
  truncated at a coverage threshold; used for evaluation, not optimization.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as highs  # private module, shipped since scipy 1.15

from .errors import ComputationError
from .logs import StochasticLanguage, Trace

#: Model probabilities are clamped here before taking the log.
P_CLAMP = 1e-12

#: Below this restricted-model mass the net is considered unable to produce the log.
MASS_FLOOR = 1e-12

_MARGINAL_TOL = 1e-9


class InfeasibleMarginals(ComputationError):
    """The two distributions do not carry matching total mass."""


class ZeroModelMass(ComputationError):
    """The model assigns (almost) no probability to any observed trace."""


def levenshtein(t1: Trace, t2: Trace) -> int:
    """Minimum number of single-symbol insertions, deletions or substitutions."""
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    if not t2:
        return len(t1)
    previous = list(range(len(t2) + 1))
    for i, a in enumerate(t1, start=1):
        current = [i]
        append = current.append
        diagonal = i - 1  # previous[j-1]
        left = i  # current[j-1]
        for up, b in zip(previous[1:], t2):
            value = diagonal if a == b else diagonal + 1
            if up + 1 < value:
                value = up + 1
            if left + 1 < value:
                value = left + 1
            append(value)
            left = value
            diagonal = up
        previous = current
    return previous[-1]


def normalized_levenshtein(t1: Trace, t2: Trace) -> float:
    """Edit distance scaled to [0, 1] by the longer trace; 0 for two empty traces."""
    longest = max(len(t1), len(t2))
    if longest == 0:
        return 0.0
    return levenshtein(t1, t2) / longest


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise trace costs; ``cost[i, j]`` moves mass from rows[i] to cols[j].

    Costs must be non-negative and zero exactly on equal traces, and the
    matrix must be symmetric when rows and cols coincide.  Matrices built
    with :func:`levenshtein_cost_matrix` additionally stay within [0, 1].
    The matrix owns the HiGHS model that :func:`emd` solves, so one matrix
    must not be used by two threads at once.
    """

    rows: tuple[Trace, ...]
    cols: tuple[Trace, ...]
    cost: np.ndarray
    #: transportation LP over the flattened plan: these costs, the (n+m) x nm
    #: marginal constraints (row sums, then column sums) and plan >= 0
    _lp: highs._Highs = field(init=False, repr=False, compare=False)
    #: trace -> index in rows / cols, read by :func:`emd` to place the marginals
    _row_idx: dict[Trace, int] = field(init=False, repr=False, compare=False)
    _col_idx: dict[Trace, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cost = np.array(self.cost, dtype=np.float64)
        if cost.shape != (len(self.rows), len(self.cols)):
            raise ValueError(f"cost shape {cost.shape} does not match {len(self.rows)}x{len(self.cols)} traces")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0.0):
            raise ValueError("costs must be finite and non-negative")
        ids: dict[Trace, int] = {}
        row_ids = [ids.setdefault(t, len(ids)) for t in self.rows]
        col_ids = [ids.setdefault(t, len(ids)) for t in self.cols]
        wrong = (cost == 0.0) != np.equal.outer(row_ids, col_ids)
        if wrong.any():
            i, j = np.argwhere(wrong)[0]
            raise ValueError(
                f"cost must be zero exactly on equal traces, violated at ({self.rows[i]!r}, {self.cols[j]!r})"
            )
        if self.rows == self.cols and not np.array_equal(cost, cost.T):
            raise ValueError("cost matrix must be symmetric when rows == cols")
        cost.flags.writeable = False
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "_lp", _transport_model(cost))
        object.__setattr__(self, "_row_idx", {t: i for i, t in enumerate(self.rows)})
        object.__setattr__(self, "_col_idx", {t: j for j, t in enumerate(self.cols)})


def _transport_model(cost: np.ndarray) -> highs._Highs:
    """HiGHS model of the transportation LP; its row bounds are set per solve."""
    n, m = cost.shape
    ij = np.arange(n * m)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n * m
    lp.num_row_ = lp.a_matrix_.num_row_ = n + m
    lp.col_cost_ = cost.ravel()
    lp.col_lower_ = np.zeros(n * m)
    lp.col_upper_ = np.full(n * m, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = np.zeros(n + m)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = 2 * np.arange(n * m + 1)
    lp.a_matrix_.index_ = np.stack([ij // m, n + ij % m], axis=1).ravel()
    lp.a_matrix_.value_ = np.ones(2 * n * m)
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "off")
    model.passModel(lp)
    return model


def levenshtein_cost_matrix(rows: tuple[Trace, ...], cols: tuple[Trace, ...]) -> CostMatrix:
    cost = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            cost[i, j] = normalized_levenshtein(r, c)
    return CostMatrix(rows=tuple(rows), cols=tuple(cols), cost=cost)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling: ``plan[i, j]`` is the mass moved from row i to col j."""

    plan: np.ndarray
    cost: float


def emd(p: StochasticLanguage, q: StochasticLanguage, cost: CostMatrix) -> TransportPlan:
    """Exact earth mover's distance between two complete stochastic languages.

    Solves the transportation linear program: minimize the total moving cost
    over all couplings whose row sums reproduce ``p`` and column sums ``q``.
    The LP is the cost matrix's own HiGHS model.  This call writes the n+m
    marginals into its row bounds, clears the previous solve's basis and
    solves from scratch, so the result depends only on ``p``, ``q`` and the
    costs, never on earlier calls.  HiGHS runs without presolve, because
    presolve rejects feasible systems whose marginals hold entries below its
    ~1e-7 tolerance.
    """
    if abs(p.mass() - 1.0) > _MARGINAL_TOL or abs(q.mass() - 1.0) > _MARGINAL_TOL:
        raise InfeasibleMarginals(
            f"languages must be complete: masses {p.mass()}, {q.mass()}"
        )
    row_idx, col_idx = cost._row_idx, cost._col_idx
    missing = [t for t in p.probs if t not in row_idx] + [t for t in q.probs if t not in col_idx]
    if missing:
        raise ValueError(f"cost matrix does not cover {missing[:3]}")

    n, m = len(cost.rows), len(cost.cols)
    marginals = np.zeros(n + m)
    for t, prob in p.probs.items():
        marginals[row_idx[t]] = prob
    for t, prob in q.probs.items():
        marginals[n + col_idx[t]] = prob

    lp = cost._lp
    for row, value in enumerate(marginals.tolist()):
        lp.changeRowBounds(row, value, value)
    lp.clearSolver()
    lp.run()
    status = lp.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise InfeasibleMarginals(f"transportation LP failed: {lp.modelStatusToString(status)}")
    plan = np.maximum(np.array(lp.getSolution().col_value).reshape(n, m), 0.0)
    return TransportPlan(plan=plan, cost=float(lp.getInfo().objective_function_value))


def language_emd(p: StochasticLanguage, q: StochasticLanguage) -> TransportPlan:
    """EMD with normalized-Levenshtein costs over the two supports."""
    rows = tuple(p.probs)
    cols = tuple(q.probs)
    return emd(p, q, levenshtein_cost_matrix(rows, cols))


@dataclass(frozen=True)
class DistanceReport:
    """One measured divergence; ``kind`` is "lh", "remd" or "temd".

    ``model_mass_on_log`` (rEMD) is the model probability found on the
    target's support before renormalization; ``coverage_used`` (tEMD) is the
    probability mass the truncated unfolding actually reached — a value
    below the requested coverage flags a partial result.
    """

    kind: str
    value: float
    model_mass_on_log: float | None = None
    coverage_used: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _on_support(target: StochasticLanguage, model_probs: dict[Trace, float]) -> tuple[dict[Trace, float], float]:
    """The model's probability of each trace of the target's support, and their
    sum.  Raises :class:`ZeroModelMass` when that sum is below ``MASS_FLOOR``."""
    if not target.is_complete:
        raise ValueError("target language must be complete")
    restricted = {t: model_probs.get(t, 0.0) for t in target.probs}
    mass = sum(restricted.values())
    if mass < MASS_FLOOR:
        raise ZeroModelMass(f"model mass on the log support is {mass}")
    return restricted, mass


def log_likelihood_divergence(target: StochasticLanguage, model_probs: dict[Trace, float]) -> float:
    """Negative expected log model probability under the target (natural log).
    Raises :class:`ZeroModelMass` when the model puts essentially no
    probability on any observed trace."""
    restricted, _ = _on_support(target, model_probs)
    total = 0.0
    for trace, p_target in target.probs.items():
        total -= p_target * np.log(max(restricted[trace], P_CLAMP))
    return float(total)


def log_likelihood_gradient(target: StochasticLanguage, model_probs: dict[Trace, float]) -> dict[Trace, float]:
    """∂/∂P(σ) of :func:`log_likelihood_divergence` for each modelled trace σ:
    -q(σ)/P(σ), and 0 where the clamp at ``P_CLAMP`` holds."""
    return {t: -target.probs.get(t, 0.0) / p if p > P_CLAMP else 0.0 for t, p in model_probs.items()}


def restricted_emd(
    target: StochasticLanguage, model_probs: dict[Trace, float], cost: CostMatrix | None = None
) -> DistanceReport:
    """EMD between the target and the model restricted to the target's support.

    The restriction is usually defective; it is renormalized to mass one
    before the transportation problem is solved.  ``cost`` is the
    normalized-Levenshtein matrix over the support, built here when omitted;
    callers that score many models against one target pass it in.  Raises
    :class:`ZeroModelMass` when the model puts essentially no probability on
    any observed trace.
    """
    restricted, mass = _on_support(target, model_probs)
    support = tuple(restricted)
    model_lang = StochasticLanguage({t: v / mass for t, v in restricted.items()}, 0.0)
    if cost is None:
        cost = levenshtein_cost_matrix(support, support)
    plan = emd(target, model_lang, cost)
    value = min(max(plan.cost, 0.0), 1.0)
    return DistanceReport(kind="remd", value=value, model_mass_on_log=mass)


def truncated_emd(target: StochasticLanguage, model: StochasticLanguage) -> DistanceReport:
    """EMD against the model language ``unfold_language`` truncated at a coverage.

    Both sides are renormalized to mass one before the LP.  The model's mass
    is reported as ``coverage_used``; it falls below the requested coverage
    when the level, length or floor budgets bound first.
    """
    mass = model.mass()
    if mass < MASS_FLOOR:
        raise ZeroModelMass(f"truncated unfolding reached mass {mass}")
    plan = language_emd(target.normalized(), model.normalized())
    value = min(max(plan.cost, 0.0), 1.0)
    return DistanceReport(kind="temd", value=value, coverage_used=mass)

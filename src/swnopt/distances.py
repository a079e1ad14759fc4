"""Divergences between stochastic languages.

Model probabilities are arrays in ``target.probs`` order and :func:`emd`'s
marginals arrays in cost-matrix order; only :func:`language_emd` and
:func:`truncated_emd` take trace-keyed :class:`StochasticLanguage` values.

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
  make a value depend on which LPs the model solved before.  rEMD and tEMD
  read back only the LP's value; ``emd`` also reads the plan.  HiGHS runs
  without presolve: presolve wrongly declares a transportation system
  infeasible when a marginal entry lies below its feasibility tolerance
  (~1e-7), and these LPs solve no slower without it.
* ``levenshtein_cost_matrix``: normalized edit distances between two trace
  sets, computed for all pairs by one vectorized integer DP (in column
  blocks of bounded size); ``levenshtein`` is the per-pair reference.
* ``restricted_emd``: EMD after restricting the model language to the
  target's support and renormalizing; cheap enough to drive optimization.
* ``truncated_emd``: EMD against the most probable part of the model
  language, ``unfold_language`` stopped at a coverage threshold; used for
  evaluation, not optimization.
"""

from collections.abc import Sequence
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


#: Upper bound on the DP entries one column block of :func:`_edit_distances`
#: holds per buffer; a block is never narrower than one column.
_DP_CELLS = 1 << 20


def _edit_distances(rows: Sequence[Trace], cols: Sequence[Trace]) -> np.ndarray:
    """Levenshtein distance of every (row, column) pair, as an int32 n x m array.

    Symbols become integer ids, and each trace a row of a padded id array.  One
    DP runs for all pairs at once: entry (i, j) of the table is an n x w
    array holding, for every pair of the block, the distance between the
    row's first i and the column's first j symbols.  A pair's distance is
    read at (its row's length, its column's length), so the padding never
    takes part.  Columns are processed in blocks of w, chosen so that one
    table row holds at most ``_DP_CELLS`` entries.
    """
    ids: dict = {}

    def encode(traces):
        lengths = np.array([len(t) for t in traces], dtype=np.intp)
        codes = np.full((len(traces), int(lengths.max(initial=0))), -1, dtype=np.int32)
        for k, trace in enumerate(traces):
            codes[k, : len(trace)] = [ids.setdefault(a, len(ids)) for a in trace]
        return codes, lengths

    row_codes, row_lens = encode(rows)
    col_codes, col_lens = encode(cols)
    n, m = len(rows), len(cols)
    out = np.empty((n, m), dtype=np.int32)
    rows_of_len = [np.flatnonzero(row_lens == i) for i in range(row_codes.shape[1] + 1)]
    width = max(1, _DP_CELLS // max(1, n * (col_codes.shape[1] + 1)))
    for start in range(0, m, width):
        block = slice(start, min(start + width, m))
        lens = col_lens[block]
        depth = int(lens.max())
        codes = col_codes[block, :depth]
        pairs = np.arange(len(lens))
        # prev[j] / cur[j]: the table entry (i - 1, j) / (i, j) for every pair
        prev = np.empty((depth + 1, n, len(lens)), dtype=np.int32)
        prev[:] = np.arange(depth + 1, dtype=np.int32)[:, None, None]
        cur = np.empty_like(prev)
        out[rows_of_len[0], block] = lens
        for i, done in enumerate(rows_of_len[1:], start=1):
            symbol = row_codes[:, i - 1, None]
            cur[0] = i
            for j in range(1, depth + 1):
                np.minimum(prev[j], cur[j - 1], out=cur[j])
                cur[j] += 1
                np.minimum(cur[j], prev[j - 1] + (symbol != codes[:, j - 1]), out=cur[j])
            if len(done):
                out[done, block] = cur[lens, done[:, None], pairs]
            prev, cur = cur, prev
    return out


def levenshtein_cost_matrix(rows: tuple[Trace, ...], cols: tuple[Trace, ...]) -> CostMatrix:
    """Normalized Levenshtein costs between every row and every column trace.

    ``cost[i, j]`` is ``normalized_levenshtein(rows[i], cols[j])``, bit for
    bit: the integer edit distance divided by the longer trace's length, 0
    for two empty traces.  All pairs share one vectorized integer DP
    (:func:`_edit_distances`).  It processes the columns in blocks of at most
    ``_DP_CELLS`` DP entries, so beyond the n x m result its memory does not
    grow with the number of columns.
    """
    rows, cols = tuple(rows), tuple(cols)
    longest = np.maximum.outer([len(t) for t in rows], [len(t) for t in cols])
    cost = _edit_distances(rows, cols) / np.maximum(longest, 1)
    return CostMatrix(rows=rows, cols=cols, cost=cost)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling: ``plan[i, j]`` is the mass moved from row i to col j."""

    plan: np.ndarray
    cost: float


def _emd_cost(p, q, cost: CostMatrix) -> float:
    """The optimal value of :func:`emd`'s transportation LP, from the same cold solve.

    Only the value is read back, which costs far less than the solver's full
    info record; the solution stays in ``cost``'s model until its next
    solve, and :func:`emd` reads the plan from there.
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    n, m = len(cost.rows), len(cost.cols)
    if p.shape != (n,) or q.shape != (m,):
        raise ValueError(f"cost matrix does not cover marginals of shapes {p.shape}, {q.shape}: it is {n}x{m}")
    if abs(p.sum() - 1.0) > _MARGINAL_TOL or abs(q.sum() - 1.0) > _MARGINAL_TOL:
        raise InfeasibleMarginals(f"marginals must have mass one: masses {p.sum()}, {q.sum()}")
    lp = cost._lp
    for row, value in enumerate(p.tolist() + q.tolist()):
        lp.changeRowBounds(row, value, value)
    lp.clearSolver()
    lp.run()
    status = lp.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise InfeasibleMarginals(f"transportation LP failed: {lp.modelStatusToString(status)}")
    return float(lp.getObjectiveValue())


def emd(p, q, cost: CostMatrix) -> TransportPlan:
    """Exact earth mover's distance between ``p`` over ``cost.rows`` and ``q``
    over ``cost.cols``, float sequences in those orders, each of mass one.

    Solves the transportation linear program: minimize the total moving cost
    over all couplings whose row sums reproduce ``p`` and column sums ``q``.
    The LP is the cost matrix's own HiGHS model.  This call writes the n+m
    marginals into its row bounds, clears the previous solve's basis and
    solves from scratch, so the result depends only on ``p``, ``q`` and the
    costs, never on earlier calls.  HiGHS runs without presolve, because
    presolve rejects feasible systems whose marginals hold entries below its
    ~1e-7 tolerance.  rEMD and tEMD read back only the value; this call
    also reads the optimal plan from the same solve.
    """
    value = _emd_cost(p, q, cost)
    shape = (len(cost.rows), len(cost.cols))
    plan = np.maximum(np.array(cost._lp.getSolution().col_value).reshape(shape), 0.0)
    return TransportPlan(plan=plan, cost=value)


def language_emd(p: StochasticLanguage, q: StochasticLanguage) -> TransportPlan:
    """EMD with normalized-Levenshtein costs over the two supports."""
    cost = levenshtein_cost_matrix(tuple(p.probs), tuple(q.probs))
    return emd(list(p.probs.values()), list(q.probs.values()), cost)


@dataclass(frozen=True)
class DistanceReport:
    """One measured divergence; ``kind`` is "lh", "remd" or "temd".

    ``model_mass_on_log`` (rEMD) is the model probability found on the
    target's support before renormalization; ``coverage_used`` (tEMD) is the
    probability mass the truncated unfolding actually reached — a value
    below the requested coverage flags a partial result, cut by the trace
    length budget or by markings that cannot reach the sink.
    """

    kind: str
    value: float
    model_mass_on_log: float | None = None
    coverage_used: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _mass_on_support(target: StochasticLanguage, model: np.ndarray) -> float:
    """Sum of ``model``, one probability per support trace; :class:`ZeroModelMass` below ``MASS_FLOOR``."""
    if not target.is_complete:
        raise ValueError("target language must be complete")
    if len(model) != len(target.probs):
        raise ValueError(f"{len(model)} model probabilities for a support of {len(target.probs)} traces")
    mass = sum(model.tolist())
    if mass < MASS_FLOOR:
        raise ZeroModelMass(f"model mass on the log support is {mass}")
    return mass


def log_likelihood_divergence(target: StochasticLanguage, model: np.ndarray) -> float:
    """Negative expected log model probability under the target (natural log),
    ``model`` in ``target.probs`` order.  Raises :class:`ZeroModelMass` when
    the model puts essentially no probability on any observed trace."""
    _mass_on_support(target, model)
    total = 0.0
    for term in (np.fromiter(target.probs.values(), np.float64) * np.log(np.maximum(model, P_CLAMP))).tolist():
        total -= term  # in support order, so the value does not depend on numpy's summation
    return total


def log_likelihood_gradient(target: StochasticLanguage, model: np.ndarray) -> np.ndarray:
    """∂/∂P(σ) of :func:`log_likelihood_divergence`, in ``target.probs`` order:
    -q(σ)/P(σ), and 0 where the clamp at ``P_CLAMP`` holds."""
    q = np.fromiter(target.probs.values(), np.float64)
    return np.divide(-q, model, out=np.zeros(len(q)), where=model > P_CLAMP)


def restricted_emd(target: StochasticLanguage, model: np.ndarray, cost: CostMatrix | None = None) -> DistanceReport:
    """EMD between the target and the model (in ``target.probs`` order)
    restricted to the target's support.

    The restriction is usually defective; it is renormalized to mass one
    before the transportation problem is solved for its value alone, which
    is :func:`emd`'s cost clamped to [0, 1].  ``cost`` is the
    normalized-Levenshtein matrix with the support, in order, as its rows and
    columns; it is built here when omitted.  Raises :class:`ZeroModelMass`
    when the model puts essentially no probability on any observed trace.
    """
    mass = _mass_on_support(target, model)
    support = tuple(target.probs)
    if cost is None:
        cost = levenshtein_cost_matrix(support, support)
    elif cost.rows != support or cost.cols != support:
        raise ValueError("cost matrix rows and columns must both be the target's support, in its order")
    value = _emd_cost(list(target.probs.values()), model / mass, cost)
    return DistanceReport(kind="remd", value=min(max(value, 0.0), 1.0), model_mass_on_log=mass)


def truncated_emd(target: StochasticLanguage, model: StochasticLanguage) -> DistanceReport:
    """EMD against the model language ``unfold_language`` truncated at a coverage.

    Both sides are renormalized to mass one before the LP, which is solved for
    its value alone, as ``language_emd(...).cost`` clamped to [0, 1].  The
    model's mass is reported as ``coverage_used``; it falls below the
    requested coverage when the trace length budget or markings that cannot
    reach the sink cut the unfolding first.
    """
    mass = model.mass()
    if mass < MASS_FLOOR:
        raise ZeroModelMass(f"truncated unfolding reached mass {mass}")
    p, q = target.normalized(), model.normalized()
    cost = levenshtein_cost_matrix(tuple(p.probs), tuple(q.probs))
    value = _emd_cost(list(p.probs.values()), list(q.probs.values()), cost)
    return DistanceReport(kind="temd", value=min(max(value, 0.0), 1.0), coverage_used=mass)

import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

import swnopt.distances
from swnopt.distances import (
    CostMatrix,
    InfeasibleMarginals,
    ZeroModelMass,
    emd,
    language_emd,
    levenshtein,
    levenshtein_cost_matrix,
    log_likelihood_divergence,
    normalized_levenshtein,
    restricted_emd,
    truncated_emd,
)
from swnopt.logs import StochasticLanguage
from swnopt.optimize import ObjectiveSpec, evaluate_objective
from swnopt.semantics import annotate, build_rg
from swnopt.unfolding import trace_probabilities, unfold_language

from .fixtures import (
    PARALLEL_CHOICE_PROBS,
    parallel_choice_language,
    parallel_choice_swn,
    parallel_choice_wn,
    silent_livelock_wn,
)
from .oracles import levenshtein_recursive, mincost_transport_units, random_feasible_plan
from .treegen import random_swn

ENTROPY_FLOOR = -(2 * 0.15 * math.log(0.15) + 2 * 0.35 * math.log(0.35))  # 1.3040114826148388


def _annotated(swn):
    return annotate(build_rg(swn.wn), swn.weight_vector())


def _model_probs(swn, target):
    return trace_probabilities(_annotated(swn), target.probs)


# -- Levenshtein --------------------------------------------------------------


def test_levenshtein_examples():
    assert levenshtein(("A", "A"), ("Q", "A")) == 1
    assert normalized_levenshtein(("A", "A"), ("Q", "A")) == 0.5
    assert levenshtein((), ()) == 0
    assert normalized_levenshtein((), ()) == 0.0
    assert levenshtein(tuple("kitten"), tuple("sitting")) == 3
    assert levenshtein_recursive(tuple("kitten"), tuple("sitting")) == 3
    assert levenshtein((), ("a", "b")) == 2
    assert normalized_levenshtein(("a",), ("a", "b", "c")) == pytest.approx(2 / 3)


def test_levenshtein_matches_recursive_oracle_on_random_pairs():
    rng = random.Random(11)
    alphabet = ("x", "y", "z")
    for _ in range(400):
        t1 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        t2 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        assert levenshtein(t1, t2) == levenshtein_recursive(t1, t2)


def test_normalized_levenshtein_range_and_identity():
    rng = random.Random(12)
    alphabet = ("x", "y")
    for _ in range(200):
        t1 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        t2 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        v = normalized_levenshtein(t1, t2)
        assert 0.0 <= v <= 1.0
        assert (v == 0.0) == (t1 == t2)


# -- cost matrices ------------------------------------------------------------


def test_cost_matrix_validation():
    rows = (("a",), ("b",))
    good = CostMatrix(rows, rows, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert good.cost.shape == (2, 2)
    with pytest.raises(ValueError, match="zero exactly on equal"):
        CostMatrix(rows, rows, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        CostMatrix(rows, rows, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        CostMatrix(rows, rows, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        CostMatrix(rows, rows, np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_cost_matrix_validation_names_first_offending_pair():
    rng = np.random.default_rng(6)
    traces = [(s,) for s in "abcdef"]
    for _ in range(50):
        rows = tuple(traces[k] for k in rng.choice(6, size=4, replace=False))
        cols = tuple(traces[k] for k in rng.choice(6, size=5, replace=False))
        cost = rng.choice([0.0, 0.5], size=(4, 5), p=[0.3, 0.7])
        first = next(((r, c) for r, row in zip(rows, cost) for c, v in zip(cols, row) if (v == 0.0) != (r == c)), None)
        if first is None:
            CostMatrix(rows, cols, cost)
            continue
        with pytest.raises(ValueError) as excinfo:
            CostMatrix(rows, cols, cost)
        assert str(excinfo.value).endswith(f"violated at ({first[0]!r}, {first[1]!r})")


def test_cost_matrix_is_read_only_copy():
    rows = (("a",), ("b",))
    given = np.array([[0.0, 1.0], [1.0, 0.0]])
    cm = CostMatrix(rows, rows, given)
    assert not cm.cost.flags.writeable
    with pytest.raises(ValueError):
        cm.cost[0, 1] = 0.5
    assert given.flags.writeable
    given[0, 1] = 0.5
    assert cm.cost[0, 1] == 1.0


def test_levenshtein_cost_matrix_is_normalized():
    rows = tuple(PARALLEL_CHOICE_PROBS)
    cm = levenshtein_cost_matrix(rows, rows)
    assert np.all(cm.cost <= 1.0)
    assert np.all(np.diag(cm.cost) == 0.0)


# -- transportation problem ---------------------------------------------------


def _point_language(masses):
    return StochasticLanguage({(str(i + 1),): m for i, m in enumerate(masses) if m > 0.0})


def _point_cost(n):
    rows = tuple((str(i + 1),) for i in range(n))
    cost = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    return CostMatrix(rows, rows, cost)


def test_emd_worked_point_example():
    p = _point_language([0.25, 0.25, 0.5])
    q = _point_language([0.5, 0.5, 0.0])
    plan = emd(p, q, _point_cost(3))
    assert plan.cost == pytest.approx(0.75, abs=1e-12)
    # marginals: rows reproduce p, columns reproduce q
    assert plan.plan.sum(axis=1) == pytest.approx([0.25, 0.25, 0.5], abs=1e-9)
    assert plan.plan.sum(axis=0) == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)
    # plan cost is consistent with the plan itself
    assert (plan.plan * _point_cost(3).cost).sum() == pytest.approx(plan.cost, abs=1e-12)
    # the transformation is symmetric
    assert emd(q, p, _point_cost(3)).cost == pytest.approx(0.75, abs=1e-12)


def test_emd_identity_and_unit_move():
    lang = parallel_choice_language()
    assert language_emd(lang, lang).cost == pytest.approx(0.0, abs=1e-12)
    p = StochasticLanguage({("a",): 1.0})
    q = StochasticLanguage({("b",): 1.0})
    assert language_emd(p, q).cost == pytest.approx(1.0, abs=1e-12)


def test_emd_rejects_defective_languages():
    p = _point_language([0.25, 0.25, 0.5])
    defective = StochasticLanguage({("1",): 0.5}, residual=0.5)
    with pytest.raises(InfeasibleMarginals):
        emd(p, defective, _point_cost(3))


def test_emd_requires_cost_coverage():
    p = StochasticLanguage({("a",): 1.0})
    q = StochasticLanguage({("b",): 1.0})
    cm = levenshtein_cost_matrix((("a",),), (("a",),))
    with pytest.raises(ValueError, match="does not cover"):
        emd(p, q, cm)


def test_emd_solves_marginals_below_highs_tolerance():
    # q holds entries below HiGHS's 1e-7 feasibility tolerance, which its
    # presolve wrongly reports as infeasible
    p_masses = [0.25, 0.25, 0.25, 0.25]
    q_masses = [1.0 - 2.1e-7, 6e-8, 7e-8, 8e-8]
    plan = emd(_point_language(p_masses), _point_language(q_masses), _point_cost(4))
    # on a line with cost |i - j| the EMD is the L1 distance between the CDFs
    closed_form = float(np.abs(np.cumsum(p_masses) - np.cumsum(q_masses))[:-1].sum())
    assert plan.cost == pytest.approx(closed_form, abs=1e-6)


def _linprog_emd(a, b, cost):
    """Reference EMD: the dense transportation LP handed to ``linprog``."""
    n, m = cost.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs",
        options={"presolve": False},
    )
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("n,m", [(4, 4), (9, 5), (17, 23), (33, 33), (60, 60)])
def test_emd_matches_linprog_oracle(n, m):
    rng = np.random.default_rng(n * 100 + m)
    words = set()
    while len(words) < n + m:
        words.add(tuple("".join(rng.choice(list("abcd"), size=rng.integers(0, 7)))))
    words = sorted(words)
    rows, cols = tuple(words[:n]), tuple(words[n - n // 2 : n - n // 2 + m])  # overlapping supports
    cm = levenshtein_cost_matrix(rows, cols)
    for _ in range(3):
        a, b = rng.random(n) ** 3, rng.random(m) ** 3
        a[rng.choice(n, size=2, replace=False)] = [3e-8, 1e-10]  # below HiGHS's 1e-7 tolerance
        b[rng.integers(m)] = 5e-8
        a, b = a / a.sum(), b / b.sum()
        plan = emd(StochasticLanguage(dict(zip(rows, a))), StochasticLanguage(dict(zip(cols, b))), cm)
        assert plan.cost == pytest.approx(_linprog_emd(a, b, cm.cost), abs=1e-12)
        # marginals hold to HiGHS's primal feasibility tolerance
        assert plan.plan.sum(axis=1) == pytest.approx(a, abs=1e-7)
        assert plan.plan.sum(axis=0) == pytest.approx(b, abs=1e-7)


def test_emd_beats_random_feasible_plans():
    rng = random.Random(21)
    for _ in range(5):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        p_raw = [rng.random() for _ in range(n)]
        q_raw = [rng.random() for _ in range(m)]
        p = np.array(p_raw) / sum(p_raw)
        q = np.array(q_raw) / sum(q_raw)
        rows = tuple(("r", str(i)) for i in range(n))
        cols = tuple(("c", str(j)) for j in range(m))
        cost = np.fromfunction(lambda i, j: abs(i - j) + 0.5, (n, m))
        cm = CostMatrix(rows, cols, cost)
        plan = emd(
            StochasticLanguage(dict(zip(rows, p))),
            StochasticLanguage(dict(zip(cols, q))),
            cm,
        )
        for _ in range(1000):
            feasible = random_feasible_plan(p, q, rng)
            assert plan.cost <= (feasible * cost).sum() + 1e-9


def test_emd_metric_properties_sample():
    rng = random.Random(31)
    for _ in range(15):
        langs = []
        for _ in range(3):
            size = rng.randint(1, 5)
            traces = set()
            while len(traces) < size:
                traces.add(tuple(rng.choice("xyz") for _ in range(rng.randint(0, 4))))
            masses = [rng.random() for _ in traces]
            total = sum(masses)
            langs.append(StochasticLanguage({t: m / total for t, m in zip(traces, masses)}))
        p, q, r = langs
        d_pq = language_emd(p, q).cost
        d_qp = language_emd(q, p).cost
        d_pp = language_emd(p, p).cost
        d_qr = language_emd(q, r).cost
        d_pr = language_emd(p, r).cost
        assert abs(d_pq - d_qp) <= 1e-9
        assert d_pp <= 1e-9
        assert d_pr <= d_pq + d_qr + 1e-9
        assert 0.0 <= d_pq <= 1.0


# -- log-likelihood -----------------------------------------------------------


def test_lh_uniform_two_traces():
    target = StochasticLanguage({("t", "1"): 0.5, ("t", "2"): 0.5})
    model = {("t", "1"): 0.5, ("t", "2"): 0.5}
    assert log_likelihood_divergence(target, model) == pytest.approx(math.log(2), abs=1e-12)


def test_lh_reference_net_reaches_entropy_floor():
    target = parallel_choice_language()
    model = _model_probs(parallel_choice_swn(), target)
    assert log_likelihood_divergence(target, model) == pytest.approx(ENTROPY_FLOOR, abs=1e-12)


def test_lh_clamps_missing_traces():
    target = StochasticLanguage({("gone",): 0.25, ("there",): 0.75})
    model = {("there",): 1.0}
    value = log_likelihood_divergence(target, model)
    assert value == pytest.approx(0.25 * -math.log(1e-12), abs=1e-9)
    assert math.isfinite(value)


def test_lh_requires_complete_target():
    with pytest.raises(ValueError):
        log_likelihood_divergence(StochasticLanguage({("a",): 0.5}, residual=0.5), {})


def test_lh_gibbs_inequality_on_random_distributions():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 6)
        traces = [("t", str(i)) for i in range(n)]
        t_raw = [rng.random() + 1e-3 for _ in range(n)]
        m_raw = [rng.random() + 1e-3 for _ in range(n)]
        t_probs = {tr: v / sum(t_raw) for tr, v in zip(traces, t_raw)}
        m_probs = {tr: v / sum(m_raw) for tr, v in zip(traces, m_raw)}
        target = StochasticLanguage(t_probs)
        entropy = -sum(p * math.log(p) for p in t_probs.values())
        assert log_likelihood_divergence(target, m_probs) >= entropy - 1e-12
        assert log_likelihood_divergence(target, t_probs) == pytest.approx(entropy, abs=1e-12)


# -- restricted EMD -----------------------------------------------------------


def test_remd_zero_for_exact_weights():
    target = parallel_choice_language()
    report = restricted_emd(target, _model_probs(parallel_choice_swn(), target))
    assert report.kind == "remd"
    assert report.value == pytest.approx(0.0, abs=1e-9)
    assert report.model_mass_on_log == pytest.approx(1.0, abs=1e-9)


def test_remd_swapped_masses_matches_grid_oracle():
    # model and target exchange the 0.15/0.35 masses; oracle works on a
    # 1/100 mass grid, exact here because all masses are multiples of 1/100
    model = {t: p for t, p in PARALLEL_CHOICE_PROBS.items()}
    target = StochasticLanguage(
        {
            ("a", "b", "c"): 0.35,
            ("a", "c", "b"): 0.15,
            ("a", "b", "d"): 0.35,
            ("a", "d", "b"): 0.15,
        }
    )
    report = restricted_emd(target, model)
    rows = tuple(target.probs)
    cost = [[normalized_levenshtein(r, c) for c in rows] for r in rows]
    units_target = [round(target.probs[t] * 100) for t in rows]
    units_model = [round(model[t] * 100) for t in rows]
    oracle = mincost_transport_units(units_target, units_model, cost) / 100
    assert report.value == pytest.approx(oracle, abs=0.01)
    assert report.value == pytest.approx(4 / 15, abs=1e-9)  # frozen from the oracle


def test_remd_renormalizes_defective_restriction():
    target = parallel_choice_language()
    # model leaks half its mass outside the log support
    model = {("a", "b", "c"): 0.075, ("a", "c", "b"): 0.175, ("a", "b", "d"): 0.075, ("a", "d", "b"): 0.175}
    report = restricted_emd(target, model)
    assert report.model_mass_on_log == pytest.approx(0.5, abs=1e-12)
    assert report.value == pytest.approx(0.0, abs=1e-9)  # same shape after renormalization


def test_remd_zero_model_mass():
    target = parallel_choice_language()
    with pytest.raises(ZeroModelMass):
        restricted_emd(target, {})


def test_remd_value_independent_of_evaluation_history():
    swn = random_swn(random.Random(2), 50, True, min_activities=10, min_transitions=30)
    rg = build_rg(swn.wn)
    lang = unfold_language(annotate(rg, swn.weight_vector()), coverage=0.95, max_trace_len=20)
    top = sorted(lang.probs, key=lang.probs.get, reverse=True)[:60]  # support 60
    target = StochasticLanguage({t: lang.probs[t] for t in top}, residual=1.0 - sum(lang.probs[t] for t in top))
    spec = ObjectiveSpec(measure="remd", rg=rg, target=target.normalized())
    rng = np.random.default_rng(8)
    probe = rng.uniform(0.1, 1.0, size=spec.n_weights)
    values = []
    for scale in (0.3, 3.0):  # two different histories, each ending at the probe
        for _ in range(8):
            evaluate_objective(spec, probe * np.exp(scale * rng.standard_normal(spec.n_weights)))
        values.append(evaluate_objective(spec, probe))
    assert values[0] == values[1]
    assert 0.0 < values[0] < 1.0


def test_transport_model_built_once_per_cost_matrix(monkeypatch):
    passed = []

    class CountingHighs(swnopt.distances.highs._Highs):
        def passModel(self, lp):
            passed.append(lp.num_col_)
            return super().passModel(lp)

    monkeypatch.setattr(swnopt.distances.highs, "_Highs", CountingHighs)
    spec = ObjectiveSpec.for_net("remd", parallel_choice_wn(), parallel_choice_language())
    assert passed == [16]
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert 0.0 <= evaluate_objective(spec, rng.uniform(0.1, 1.0, size=spec.n_weights)) <= 1.0
    assert passed == [16]


# -- truncated EMD ------------------------------------------------------------


def test_temd_zero_for_exact_weights():
    target = parallel_choice_language()
    report = truncated_emd(target, unfold_language(_annotated(parallel_choice_swn()), coverage=0.8))
    assert report.kind == "temd"
    assert report.value == pytest.approx(0.0, abs=1e-9)
    assert report.coverage_used == pytest.approx(1.0, abs=1e-9)  # finite language fully unfolds


def test_temd_uniform_weights_matches_oracle():
    from swnopt.nets import StochasticWorkflowNet

    wn = parallel_choice_wn()
    uniform = StochasticWorkflowNet(wn, {t: 1.0 for t in wn.net.transitions})
    target = parallel_choice_language()
    report = truncated_emd(target, unfold_language(_annotated(uniform), coverage=1.0))
    # model language at uniform weights: {abc: 1/6, abd: 1/6, acb: 1/3, adb: 1/3};
    # oracle on a 1/600 mass grid (both sides are exact multiples)
    rows = tuple(target.probs)
    cost = [[normalized_levenshtein(r, c) for c in rows] for r in rows]
    units_target = [round(target.probs[t] * 600) for t in rows]
    model = {("a", "b", "c"): 100, ("a", "c", "b"): 200, ("a", "b", "d"): 100, ("a", "d", "b"): 200}
    oracle = mincost_transport_units(units_target, [model[t] for t in rows], cost) / 600
    assert report.value == pytest.approx(oracle, abs=1e-9)
    assert report.value == pytest.approx(1 / 45, abs=1e-9)  # frozen from the oracle


def test_temd_partial_coverage_is_flagged_not_fatal():
    from swnopt.nets import StochasticWorkflowNet

    swn = StochasticWorkflowNet(
        silent_livelock_wn(),
        {"t_in": 1.0, "t_go": 9.0, "t_back": 1.0, "emit": 1.0, "t_out": 1.0},
    )
    target = StochasticLanguage({("a",): 1.0})
    report = truncated_emd(target, unfold_language(_annotated(swn), coverage=0.8))
    assert report.coverage_used < 0.8
    assert 0.0 <= report.value <= 1.0


def test_distance_report_json_shape():
    report = restricted_emd(parallel_choice_language(), PARALLEL_CHOICE_PROBS)
    payload = report.to_json_dict()
    assert set(payload) == {"kind", "value", "model_mass_on_log", "coverage_used"}
    assert payload["kind"] == "remd"
    assert payload["coverage_used"] is None

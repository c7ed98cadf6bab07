"""State-bank harvesting, KL divergence, and predictor-agreement tests.

KL values are checked against 50-digit mpmath recomputation and the
compare() report against a from-scratch scripted recomputation that uses
pairwise probability relations instead of rank grouping.
"""

import csv
import math

import mpmath as mp
import numpy as np
import pytest

from contab.analysis import (
    AGREEMENT_COLUMNS,
    AgreementReport,
    BankEntry,
    agreement_rows,
    compare,
    format_cell,
    harvest_states,
    kl_divergence,
    load_bank,
    rank_groups,
    replay_entry,
    report_csv,
    save_bank,
)
from contab.clausify import clausify_text, load_matrix
from contab.corpus import corpus_problems
from contab.features import FEATURE_DIM, _hash
from contab.policy import (FixedEntropyPredictor, LinearPredictor, Predictor, UniformPredictor,
                           predict, softmax_temperature)
from contab.search import HARVEST_CAP, SearchLimits
from contab.tableau import EXTENSION, START, Action, Engine

P_EX = [0.5, 0.47, 0.01, 0.01, 0.01]
Q_EX = [0.96, 0.01, 0.01, 0.01, 0.01]


def mp_kl(p, q):
    with mp.workdps(50):
        total = mp.mpf(0)
        for pi, qi in zip(p, q):
            if pi > 0.0:
                if qi == 0.0:
                    return mp.inf
                total += mp.mpf(pi) * mp.log(mp.mpf(pi) / mp.mpf(qi))
        return total


def random_dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


class TestKLDivergence:
    def test_worked_example_forward(self):
        assert kl_divergence(P_EX, Q_EX) == pytest.approx(1.48, abs=0.01)

    def test_worked_example_reverse(self):
        assert kl_divergence(Q_EX, P_EX) == pytest.approx(0.58, abs=0.01)

    def test_self_divergence_is_exactly_zero(self):
        assert kl_divergence(P_EX, P_EX) == 0.0
        assert kl_divergence([1.0], [1.0]) == 0.0

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            p, q = random_dist(rng, n), random_dist(rng, n)
            got = kl_divergence(p, q)
            want = float(mp_kl(p, q))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_gibbs_nonnegative_zero_only_at_equality(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p, q = random_dist(rng, n), random_dist(rng, n)
            assert kl_divergence(p, q) >= -1e-12
            assert kl_divergence(p, p) <= 1e-12
            if np.max(np.abs(p - q)) > 1e-3:
                assert kl_divergence(p, q) > 0.0

    def test_asymmetric_in_general(self):
        rng = np.random.default_rng(29)
        differing = 0
        for _ in range(100):
            p, q = random_dist(rng, 4), random_dist(rng, 4)
            if abs(kl_divergence(p, q) - kl_divergence(q, p)) > 1e-9:
                differing += 1
        assert differing >= 90

    def test_support_mismatch_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf
        # zeros in P where Q has mass cost nothing
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])


class TestRankGroups:
    def test_distinct_values_distinct_ranks(self):
        assert list(rank_groups([0.5, 0.3, 0.2])) == [0, 1, 2]
        assert list(rank_groups([0.2, 0.5, 0.3])) == [2, 0, 1]

    def test_exact_ties_share_a_rank(self):
        assert list(rank_groups([0.4, 0.4, 0.2])) == [0, 0, 1]

    def test_sub_tolerance_gap_collapses(self):
        assert list(rank_groups([0.5, 0.5 + 1e-12, 0.3])) == [0, 0, 1]

    def test_super_tolerance_gap_splits(self):
        assert list(rank_groups([0.5, 0.5 - 1e-6, 0.3])) == [0, 1, 2]

    def test_invariant_under_temperature_rescaling(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            logits = np.sort(rng.standard_normal(n))[::-1]
            logits += np.arange(n, 0, -1) * 0.05  # well-separated values
            cold = rank_groups(softmax_temperature(logits, 1.0))
            warm = rank_groups(softmax_temperature(logits, 3.0))
            assert np.array_equal(cold, warm)


BANK_PROBLEMS = {
    "branchy": (
        "cnf(a1, axiom, p(X) | q(X)).\ncnf(a2, axiom, p(X) | r(X)).\n"
        "cnf(a3, axiom, ~q(X) | r(X)).\ncnf(a4, axiom, ~r(X) | q(X)).\n"
        "cnf(a5, axiom, ~q(X) | s(X)).\ncnf(a6, axiom, ~s(X) | q(X)).\n"
        "fof(c, conjecture, p(a))."
    ),
    "fork": (
        "cnf(a1, axiom, p(a) | m(a)).\ncnf(a2, axiom, ~m(X) | n(X)).\n"
        "cnf(a3, axiom, ~m(X) | k(X)).\ncnf(a4, axiom, ~n(X) | m(X)).\n"
        "cnf(a5, axiom, ~k(X) | m(X)).\nfof(c, conjecture, p(a))."
    ),
    "rewrite2": (
        "cnf(p1, axiom, p(b)).\ncnf(p2, axiom, p(c)).\n"
        "cnf(e1, axiom, f(a) = b).\ncnf(e2, axiom, f(a) = c).\n"
        "fof(c, conjecture, p(f(a)))."
    ),
}


def bank_fixture():
    problems = [(name, Engine(clausify_text(text)))
                for name, text in sorted(BANK_PROBLEMS.items())]
    limits = SearchLimits(inference_limit=200, bigstep_frequency=25)
    bank = harvest_states(problems, limits)
    return bank, dict(problems)


def trained_stand_in(seed=5, temperature=1.0):
    rng = np.random.default_rng(seed)
    return LinearPredictor(dict(enumerate(rng.standard_normal(FEATURE_DIM) * 0.5)),
                           dict(enumerate(rng.standard_normal(FEATURE_DIM) * 0.5)),
                           temperature=temperature)


class TestHarvest:
    def test_branching_problems_yield_entries(self):
        bank, engines = bank_fixture()
        assert len(bank) > 0
        assert {e.problem for e in bank} >= {"branchy", "rewrite2"}

    def test_entries_replay_to_recorded_action_count(self):
        bank, engines = bank_fixture()
        for entry in bank:
            state = replay_entry(engines[entry.problem], entry)
            actions = engines[entry.problem].legal_actions(state)
            assert len(actions) == entry.n_actions
            assert entry.n_actions >= 2

    def test_harvest_is_deterministic(self):
        bank_a, _ = bank_fixture()
        bank_b, _ = bank_fixture()
        assert [(e.problem, e.path, e.n_actions) for e in bank_a] == [
            (e.problem, e.path, e.n_actions) for e in bank_b
        ]

    def test_repeated_problem_contributes_once(self):
        engine = Engine(clausify_text(BANK_PROBLEMS["branchy"]))
        limits = SearchLimits(inference_limit=200, bigstep_frequency=25)
        once = harvest_states([("b", engine)], limits)
        twice = harvest_states([("b", engine), ("b", engine)], limits)
        assert len(once) == len(twice)

    def test_corpus_bank_size_snapshot(self):
        problems = [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]
        limits = SearchLimits(inference_limit=400, bigstep_frequency=50)
        bank = harvest_states(problems, limits)
        assert len(bank) == 43  # first-run snapshot, frozen
        per = {}
        for e in bank:
            per[e.problem] = per.get(e.problem, 0) + 1
        assert max(per.values()) <= HARVEST_CAP


class TestBankFiles:
    def test_roundtrip(self, tmp_path):
        bank, _ = bank_fixture()
        bank.append(BankEntry("rootcase", (), 3))
        path = tmp_path / "states.bank"
        save_bank(path, bank)
        back = load_bank(path)
        assert [(e.problem, e.path, e.n_actions) for e in back] == [
            (e.problem, e.path, e.n_actions) for e in bank
        ]
        assert path.read_text().splitlines()[0] == "contab-bank v1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bank"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_bank(path)

    @pytest.mark.parametrize("n_actions", [0, 1])
    def test_fewer_than_two_actions_rejected_by_line(self, tmp_path, n_actions):
        path = tmp_path / "states.bank"
        path.write_text(f"contab-bank v1\nchain1\tstart 2\t2\n\nchain1\tstart 2\t{n_actions}\n")
        with pytest.raises(ValueError) as info:
            load_bank(path)
        assert str(info.value) == f"{path}:4: a bank state has at least 2 actions, got {n_actions}"

    def test_paths_are_written_as_trace_lines(self, tmp_path):
        path = tmp_path / "states.bank"
        steps = (Action(START, clause_id=2), Action(EXTENSION, clause_id=1, literal_index=0))
        save_bank(path, [BankEntry("p", steps, 3), BankEntry("q", (), 2)])
        assert path.read_text() == "contab-bank v1\np\tstart 2;extension 1 0\t3\nq\t-\t2\n"
        assert [e.path for e in load_bank(path)] == [steps, ()]

    @pytest.mark.parametrize("steps, complaint", [
        ("start 2;start -1", "malformed action line 'start -1': negative index"),
        ("start 2;extension 1", "malformed action line 'extension 1': "
                                "an extension action has 3 fields, not 2"),
        ("start 2;;extension 1 1", "empty action line"),
        ("start 2;jump 3", "unknown action kind 'jump'"),
    ], ids=["negative-index", "missing-field", "empty-step", "unknown-kind"])
    def test_a_malformed_step_is_refused_at_load_by_line(self, tmp_path, steps, complaint):
        path = tmp_path / "states.bank"
        path.write_text(f"contab-bank v1\nchain1\tstart 2\t2\nchain1\t{steps}\t2\n")
        with pytest.raises(ValueError) as info:
            load_bank(path)
        assert str(info.value) == f"{path}:3: {complaint}"


def scripted_compare(pred_a, pred_b, bank, engines, tol=1e-9):
    """Independent recomputation: favorites via explicit max scan,
    ordering via pairwise probability relations, KL via mpmath."""
    best = order = 0
    ab, ba = [], []
    inf_ab = inf_ba = 0
    for entry in bank:
        engine = engines[entry.problem]
        state = replay_entry(engine, entry)
        actions = engine.legal_actions(state)
        pa, _ = predict(pred_a, state, actions, engine.matrix)
        pb, _ = predict(pred_b, state, actions, engine.matrix)

        def favorite(p):
            top = max(p)
            for i, v in enumerate(p):
                if top - v <= tol:
                    return i

        def relations(p):
            rel = []
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if abs(p[i] - p[j]) <= tol:
                        rel.append("=")
                    elif p[i] > p[j]:
                        rel.append(">")
                    else:
                        rel.append("<")
            return rel

        if favorite(pa) == favorite(pb):
            best += 1
        if relations(pa) == relations(pb):
            order += 1
        d = mp_kl(pa, pb)
        if mp.isinf(d):
            inf_ab += 1
        else:
            ab.append(float(d))
        d = mp_kl(pb, pa)
        if mp.isinf(d):
            inf_ba += 1
        else:
            ba.append(float(d))
    n = len(bank)
    return AgreementReport(
        best=best / n if n else 0.0,
        order=order / n if n else 0.0,
        kl_ab=sum(ab) / len(ab) if ab else 0.0,
        kl_ba=sum(ba) / len(ba) if ba else 0.0,
        states=n,
        infinite_ab=inf_ab,
        infinite_ba=inf_ba)


class TestCompare:
    def test_self_comparison_is_perfect(self):
        bank, engines = bank_fixture()
        pred = trained_stand_in()
        report = compare(pred, pred, bank, engines)
        assert report.best == 1.0
        assert report.order == 1.0
        assert report.kl_ab == 0.0
        assert report.kl_ba == 0.0
        assert report.states == len(bank)
        assert report.infinite_ab == report.infinite_ba == 0

    def test_argument_swap_mirrors_the_report(self):
        bank, engines = bank_fixture()
        a, b = UniformPredictor(), trained_stand_in()
        fwd = compare(a, b, bank, engines)
        rev = compare(b, a, bank, engines)
        assert fwd.best == rev.best
        assert fwd.order == rev.order
        assert fwd.kl_ab == rev.kl_ba
        assert fwd.kl_ba == rev.kl_ab
        assert fwd.infinite_ab == rev.infinite_ba

    def test_temperature_rescaling_keeps_order(self):
        bank, engines = bank_fixture()
        cold = trained_stand_in(temperature=1.0)
        warm = trained_stand_in(temperature=3.0)
        report = compare(cold, warm, bank, engines)
        assert report.order == 1.0
        assert report.best == 1.0
        assert report.kl_ab > 0.0
        assert report.kl_ba > 0.0

    def test_matches_scripted_recomputation(self):
        bank, engines = bank_fixture()
        a, b = UniformPredictor(), trained_stand_in()
        got = compare(a, b, bank, engines)
        want = scripted_compare(a, b, bank, engines)
        assert got.best == want.best
        assert got.order == want.order
        assert got.kl_ab == pytest.approx(want.kl_ab, rel=1e-12, abs=1e-12)
        assert got.kl_ba == pytest.approx(want.kl_ba, rel=1e-12, abs=1e-12)
        assert got.states == want.states
        assert got.infinite_ab == want.infinite_ab
        assert got.infinite_ba == want.infinite_ba

    def test_stale_bank_entry_is_an_error(self):
        bank, engines = bank_fixture()
        bank[0].n_actions += 1
        with pytest.raises(ValueError):
            compare(UniformPredictor(), UniformPredictor(), bank, engines)

    def test_empty_bank_reports_zeros(self):
        report = compare(UniformPredictor(), UniformPredictor(), [], {})
        assert report.states == 0
        assert report.best == report.order == 0.0


@pytest.fixture(scope="module")
def corpus_bank():
    problems = [(p.stem, Engine(load_matrix(p))) for p in corpus_problems()]
    return harvest_states(problems, SearchLimits(inference_limit=100)), dict(problems)


class AllInfinite(Predictor):
    """Every action logit +inf: ``inf - inf`` makes the distribution NaN."""

    reads_state = False

    def predict_policy(self, action_features):
        return np.full(len(action_features), math.inf)

    def predict_value(self, state):
        return 0.5


class TestCompareOverTheCorpus:
    def test_infinite_kl_terms_are_counted_apart(self, corpus_bank):
        # a logit gap of 2000 underflows the extension-less actions' mass
        # to 0 where extensions compete with them, so uniform's KL to it
        # is infinite there; the mean is over the other states
        bank, engines = corpus_bank
        extension = LinearPredictor({_hash("a:extension"): 2000.0})
        report = compare(UniformPredictor(), extension, bank, engines)
        assert (report.states, report.infinite_ab, report.infinite_ba) == (43, 10, 0)
        want = scripted_compare(UniformPredictor(), extension, bank, engines)
        assert report.kl_ab == want.kl_ab == 0.0
        assert report.kl_ba == pytest.approx(want.kl_ba, rel=1e-12)
        mirrored = compare(extension, UniformPredictor(), bank, engines)
        assert (mirrored.infinite_ab, mirrored.infinite_ba) == (0, 10)
        assert (mirrored.kl_ab, mirrored.kl_ba) == (report.kl_ba, report.kl_ab)

    def test_the_finite_mean_leaves_the_infinite_terms_out(self, corpus_bank):
        bank, engines = corpus_bank
        reduction = LinearPredictor({_hash("a:reduction"): 2000.0, _hash("a:extension"): 1.0})
        report = compare(UniformPredictor(), reduction, bank, engines)
        want = scripted_compare(UniformPredictor(), reduction, bank, engines)
        assert (report.infinite_ab, report.infinite_ba) == (want.infinite_ab,
                                                              want.infinite_ba) == (2, 0)
        assert report.kl_ab == pytest.approx(want.kl_ab, rel=1e-12)
        assert report.kl_ab > 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_distribution_that_is_not_finite_is_an_error(self, corpus_bank):
        bank, engines = corpus_bank
        fixed = FixedEntropyPredictor(AllInfinite(), 0.6, seed=3)
        for a, b in ((AllInfinite(), UniformPredictor()), (UniformPredictor(), AllInfinite()),
                     (fixed, UniformPredictor()), (UniformPredictor(), fixed)):
            with pytest.raises(ValueError, match="^AllInfinite scored a distribution over "
                                                 "[0-9]+ actions that is not finite$"):
                compare(a, b, bank, engines)


class TestReportCsv:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        report_csv(path, AGREEMENT_COLUMNS, [])
        assert path.read_bytes() == (",".join(AGREEMENT_COLUMNS) + "\r\n").encode()

    def test_cell_formatting(self):
        assert format_cell(0.5) == "0.50"
        assert format_cell(1.23456) == "1.23"
        assert format_cell(np.float64(2.0)) == "2.00"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(True) == "1"
        assert format_cell("uniform-vs-linear") == "uniform-vs-linear"

    def test_row_roundtrips_through_csv_reader(self, tmp_path):
        path = tmp_path / "out.csv"
        report_csv(path, ["name", "succ", "kl"], [["run1", 12, 1.4812]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["name", "succ", "kl"], ["run1", "12", "1.48"]]

    def test_agreement_rows_follow_column_order(self):
        report = AgreementReport(best=0.75, order=0.5, kl_ab=1.0, kl_ba=2.0,
                                 states=4, infinite_ab=1, infinite_ba=0)
        rows = agreement_rows([("u-vs-l", report)])
        assert len(rows) == 1
        assert rows[0] == ["u-vs-l", 4, 0.75, 0.5, 1.0, 2.0, 1, 0]
        assert len(rows[0]) == len(AGREEMENT_COLUMNS)

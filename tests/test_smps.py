import numpy as np
import pytest
from scipy.optimize import linprog

from scsopt.exceptions import (
    DuplicateName,
    MalformedSection,
    NotTwoPeriods,
    ParseError,
    ProbabilityNotSummingToOne,
    UnknownName,
    UnknownRow,
    UnsupportedStochType,
    UnsupportedStructure,
)
from scsopt.model import enumerate_support, extensive_form, true_objective
from scsopt.smps import assemble, load_smps, parse_core, parse_stoch, parse_time

MINI_CORE = """\
NAME        MINI
ROWS
 N  OBJ
 E  R1
 L  R2
COLUMNS
    X1        OBJ       1.0    R1        1.0
    X1        R2        1.0
    Y1        OBJ       2.0    R2        1.0
RHS
    RHS       R1        1.0    R2        4.0
ENDATA
"""

MINI_TIME = """\
TIME        MINI
PERIODS     IMPLICIT
    X1        R1        PERIOD1
    Y1        R2        PERIOD2
ENDATA
"""

MINI_STOCH = """\
STOCH       MINI
INDEP       DISCRETE
    RHS       R2        3.0   PERIOD2   0.4
    RHS       R2        5.0   PERIOD2   0.6
ENDATA
"""


class TestParseCore:
    def test_counts_match_hand_tally(self):
        core = parse_core(MINI_CORE)
        assert core.obj_row == "OBJ"
        assert core.row_names == ["R1", "R2"]
        assert core.col_names == ["X1", "Y1"]
        # 3 constraint nonzeros as written (objective entries tracked separately)
        nonobj = [k for k in core.entries if k[0] != "OBJ"]
        assert len(nonobj) == 3
        assert core.rhs == {"R1": 1.0, "R2": 4.0}

    def test_empty_columns_is_malformed(self):
        text = MINI_CORE.replace(
            "    X1        OBJ       1.0    R1        1.0\n"
            "    X1        R2        1.0\n"
            "    Y1        OBJ       2.0    R2        1.0\n", "")
        with pytest.raises(MalformedSection):
            parse_core(text)

    def test_rhs_omitted_defaults_to_zero(self):
        text = MINI_CORE.replace(
            "RHS\n    RHS       R1        1.0    R2        4.0\n", "")
        core = parse_core(text)
        assert core.rhs == {}

    def test_duplicate_row_name(self):
        text = MINI_CORE.replace(" L  R2", " L  R2\n E  R1")
        with pytest.raises(DuplicateName):
            parse_core(text)

    def test_unknown_row_reference(self):
        text = MINI_CORE.replace("X1        R2        1.0", "X1        NOPE      1.0")
        with pytest.raises(UnknownRow):
            parse_core(text)

    def test_unknown_section_warns(self):
        text = MINI_CORE.replace("ENDATA", "RANGES\n    R         R2   1.0\nENDATA")
        with pytest.warns(UserWarning, match="RANGES"):
            parse_core(text)

    def test_bad_bound_value_names_its_line(self):
        text = MINI_CORE.replace("ENDATA", "BOUNDS\n UP BND       Y1        abc\nENDATA")
        with pytest.raises(MalformedSection, match="bad bound value 'abc'") as err:
            parse_core(text)
        assert err.value.line_no == 13

    def test_bad_quadobj_value_names_its_line(self):
        text = MINI_CORE.replace("ENDATA", "QUADOBJ\n    X1        X1        two\nENDATA")
        with pytest.raises(MalformedSection, match="bad QUADOBJ value 'two'") as err:
            parse_core(text)
        assert err.value.line_no == 13


class TestParseTime:
    def test_split_matches_hand_count(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        assert split.stage1_cols == ["X1"]
        assert split.stage2_cols == ["Y1"]
        assert split.stage1_rows == ["R1"]
        assert split.stage2_rows == ["R2"]

    def test_degenerate_split_rejected(self):
        core = parse_core(MINI_CORE)
        text = MINI_TIME.replace("    Y1        R2        PERIOD2", "    X1        R1        PERIOD2")
        with pytest.raises(NotTwoPeriods):
            parse_time(text, core)

    def test_unknown_marker_name(self):
        core = parse_core(MINI_CORE)
        with pytest.raises(UnknownName):
            parse_time(MINI_TIME.replace("Y1", "ZZ"), core)

    def test_wrong_marker_count(self):
        core = parse_core(MINI_CORE)
        with pytest.raises(NotTwoPeriods):
            parse_time(MINI_TIME.replace("    Y1        R2        PERIOD2\n", ""), core)


class TestParseStoch:
    def test_discrete_marginal_mean(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        text = MINI_STOCH.replace("3.0   PERIOD2   0.4", "5.0   PERIOD2   0.3").replace(
            "5.0   PERIOD2   0.6", "7.0   PERIOD2   0.7")
        stoch = parse_stoch(text, core, split)
        (_col, _row, dist), = stoch.marginals
        assert sum(v * p for v, p in zip(dist.values, dist.probs)) == pytest.approx(6.4)

    def test_probabilities_must_sum_to_one(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        text = MINI_STOCH.replace("0.6", "0.4")
        with pytest.raises(ProbabilityNotSummingToOne):
            parse_stoch(text, core, split)

    def test_blocks_rejected(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        text = MINI_STOCH.replace("INDEP       DISCRETE", "BLOCKS      DISCRETE")
        with pytest.raises(UnsupportedStochType):
            parse_stoch(text, core, split)

    def test_indep_normal_rejected(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        text = MINI_STOCH.replace("INDEP       DISCRETE", "INDEP       NORMAL")
        with pytest.raises(UnsupportedStochType):
            parse_stoch(text, core, split)


class TestAssemble:
    def _triple(self, stoch_text=MINI_STOCH):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        stoch = parse_stoch(stoch_text, core, split)
        return assemble(core, split, stoch)

    def test_deterministic_stoch_single_scenario(self):
        text = MINI_STOCH.replace(
            "    RHS       R2        3.0   PERIOD2   0.4\n"
            "    RHS       R2        5.0   PERIOD2   0.6\n",
            "    RHS       R2        4.5   PERIOD2   1.0\n")
        problem, sampler = self._triple(text)
        assert problem.support_size() == 1
        got = sampler.sample(1)
        assert got[0].xi[0] == 4.5

    def test_slack_shapes(self):
        problem, _ = self._triple()
        # stage 1: one equality row, no slack; stage 2: one L row -> one slack
        assert problem.n1 == 1 and problem.m1 == 1
        assert problem.n2 == 2 and problem.m2 == 1
        np.testing.assert_allclose(problem.D, [[1.0, 1.0]])
        np.testing.assert_allclose(problem.C, [[1.0]])

    def test_random_cost_rejected(self):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        text = MINI_STOCH.replace("RHS       R2 ", "Y1        R2 ")
        with pytest.raises(UnsupportedStructure):
            assemble(core, split, parse_stoch(text, core, split))

    def test_objective_value_roundtrip_against_scipy(self):
        # independent path: assemble -> true_objective vs direct per-scenario LPs
        problem, _ = self._triple()
        sup = enumerate_support(problem)
        x = np.array([1.0])  # R1 forces x = 1
        ours = true_objective(problem, sup, x)
        expected = 0.0
        for value, prob_w in ((3.0, 0.4), (5.0, 0.6)):
            res = linprog([2.0], A_ub=[[1.0]], b_ub=[value - 1.0 * 1.0],
                          bounds=(0, None), method="highs")
            expected += prob_w * res.fun
        expected += 1.0 * 1.0
        assert ours == pytest.approx(expected, abs=1e-9)


# First stage: x1 <= 4 (UP), x2 = 2 (FX), x3 free below (MI), one L row and an
# off-diagonal QUADOBJ term; second stage: a G row with a random x1 entry, an E
# row, y1 <= 5 (UP) and y2 with PL (no row).
BOUNDED_CORE = """\
NAME        BOUNDED
ROWS
 N  OBJ
 L  C1
 G  R1
 E  R2
COLUMNS
    X1        OBJ       1.0    C1        1.0
    X1        R1       -1.0
    X2        OBJ       2.0    C1        1.0
    X3        OBJ      -1.0    C1        1.0
    X3        R2        1.0
    Y1        OBJ       3.0    R1        1.0
    Y1        R2        1.0
    Y2        OBJ       4.0    R1        1.0
    Y2        R2       -1.0
RHS
    RHS       C1       10.0    R1        3.0
    RHS       R2        1.0
BOUNDS
 UP BND       X1        4.0
 FX BND       X2        2.0
 MI BND       X3
 UP BND       Y1        5.0
 PL BND       Y2
QUADOBJ
    X1        X3        0.5
ENDATA
"""

BOUNDED_TIME = """\
TIME        BOUNDED
PERIODS     IMPLICIT
    X1        C1        PERIOD1
    Y1        R1        PERIOD2
ENDATA
"""

BOUNDED_STOCH = """\
STOCH       BOUNDED
INDEP       DISCRETE
    X1        R1       -1.0   PERIOD2   0.25
    X1        R1       -2.0   PERIOD2   0.75
ENDATA
"""


def test_bounds_and_quadobj_assemble_to_hand_written_arrays():
    core = parse_core(BOUNDED_CORE)
    split = parse_time(BOUNDED_TIME, core)
    problem, _ = assemble(core, split, parse_stoch(BOUNDED_STOCH, core, split))
    # columns x1 x2 x3 s(C1) s(x1 <= 4); rows C1, x1 <= 4, x2 = 2 (no slack)
    np.testing.assert_array_equal(problem.A, [[1, 1, 1, 1, 0],
                                              [1, 0, 0, 0, 1],
                                              [0, 1, 0, 0, 0]])
    np.testing.assert_array_equal(problem.b, [10, 4, 2])
    np.testing.assert_array_equal(problem.lower_bounds, [0, 2, -np.inf, 0, 0])
    np.testing.assert_array_equal(problem.c, [1, 2, -1, 0, 0])
    Q = np.zeros((5, 5))
    Q[0, 2] = Q[2, 0] = 0.5
    np.testing.assert_array_equal(problem.Q, Q)
    # columns y1 y2 s(R1, G) s(y1 <= 5); rows R1, R2, y1 <= 5
    np.testing.assert_array_equal(problem.D, [[1, 1, -1, 0],
                                              [1, -1, 0, 0],
                                              [1, 0, 0, 1]])
    np.testing.assert_array_equal(problem.xi, [3, 1, 5])
    np.testing.assert_array_equal(problem.C, [[-1, 0, 0, 0, 0],
                                              [0, 0, 1, 0, 0],
                                              [0, 0, 0, 0, 0]])
    np.testing.assert_array_equal(problem.d, [3, 4, 0, 0])
    assert problem.P is None
    (entry,) = problem.stochastic_map
    assert (entry.kind, entry.row, entry.col) == ("tech", 0, 0)
    assert (entry.dist.values, entry.dist.probs) == ((-1.0, -2.0), (0.25, 0.75))


class TestLandsToy:
    def test_parses_and_enumerates(self):
        problem, sampler = load_smps("instances/lands_toy.cor", seed=0)
        assert problem.support_size() == 27
        sup = enumerate_support(problem)
        assert len(sup) == 27
        assert sum(s.weight for s in sup) == pytest.approx(1.0, abs=1e-12)

    def test_slack_conversion_preserves_optimum(self):
        # extensive-form optimum of the assembled equality form must match an
        # independently built inequality-form LP solved by scipy
        problem, _ = load_smps("instances/lands_toy.cor", seed=0)
        sup = enumerate_support(problem)
        ours = extensive_form(problem, sup).solve()
        assert ours.status == "optimal"

        n_x, n_y, n_u = 4, 12, 3
        cost_x = np.array([10.0, 7.0, 16.0, 6.0])
        op = {1: [4.0, 4.5, 5.0], 2: [4.5, 5.0, 5.5], 3: [3.2, 3.7, 4.2], 4: [5.5, 6.0, 6.5]}
        cost_y = np.array([op[i][j] for i in range(1, 5) for j in range(3)])
        cost_u = np.full(3, 40.0)
        scen_xi = [s.xi[4:7] for s in sup]
        weights = [s.weight for s in sup]
        nv = n_x + len(sup) * (n_y + n_u)
        c_full = np.concatenate([cost_x] + [w * np.concatenate([cost_y, cost_u]) for w in weights])
        A_ub, b_ub = [], []
        row = np.zeros(nv)
        row[:4] = [10.0, 7.0, 16.0, 6.0]
        A_ub.append(row.copy()); b_ub.append(120.0)
        row = np.zeros(nv); row[:4] = -1.0
        A_ub.append(row.copy()); b_ub.append(-12.0)
        for s_i in range(len(sup)):
            off = n_x + s_i * (n_y + n_u)
            for i in range(4):
                row = np.zeros(nv)
                row[i] = -1.0
                row[off + 3 * i: off + 3 * i + 3] = 1.0
                A_ub.append(row.copy()); b_ub.append(0.0)
            for j in range(3):
                row = np.zeros(nv)
                row[off + j: off + n_y: 3] = -1.0
                row[off + n_y + j] = -1.0
                A_ub.append(row.copy()); b_ub.append(-scen_xi[s_i][j])
        ref = linprog(c_full, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert ours.value == pytest.approx(ref.fun, abs=1e-8 * (1 + abs(ref.fun)))

    def test_missing_stoch_file_is_named(self, tmp_path):
        core = tmp_path / "inst.cor"
        timef = tmp_path / "inst.tim"
        core.write_text(MINI_CORE)
        timef.write_text(MINI_TIME)
        with pytest.raises(ParseError, match="inst.sto"):
            load_smps(str(core))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import reference

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
        text = MINI_STOCH.replace("3.0   PERIOD2   0.4", "5.0   PERIOD2   0.3").replace(
            "5.0   PERIOD2   0.6", "7.0   PERIOD2   0.7")
        (_col, _row, dist), = parse_stoch(text, core)
        assert sum(v * p for v, p in zip(dist.values, dist.probs)) == pytest.approx(6.4)

    def test_probabilities_must_sum_to_one(self):
        core = parse_core(MINI_CORE)
        text = MINI_STOCH.replace("0.6", "0.4")
        with pytest.raises(ProbabilityNotSummingToOne):
            parse_stoch(text, core)

    def test_blocks_rejected(self):
        core = parse_core(MINI_CORE)
        text = MINI_STOCH.replace("INDEP       DISCRETE", "BLOCKS      DISCRETE")
        with pytest.raises(UnsupportedStochType):
            parse_stoch(text, core)

    def test_indep_normal_rejected(self):
        core = parse_core(MINI_CORE)
        text = MINI_STOCH.replace("INDEP       DISCRETE", "INDEP       NORMAL")
        with pytest.raises(UnsupportedStochType):
            parse_stoch(text, core)


class TestAssemble:
    def _triple(self, stoch_text=MINI_STOCH):
        core = parse_core(MINI_CORE)
        split = parse_time(MINI_TIME, core)
        return assemble(core, split, parse_stoch(stoch_text, core))

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
            assemble(core, split, parse_stoch(text, core))

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
    problem, _ = assemble(core, split, parse_stoch(BOUNDED_STOCH, core))
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


def _load_edited(tmp_path, core=(), time=(), stoch=()):
    """load_smps on the MINI triple after each (old, new) text edit; each old must occur."""
    for ext, text, edits in ((".cor", MINI_CORE, core), (".tim", MINI_TIME, time),
                             (".sto", MINI_STOCH, stoch)):
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        (tmp_path / f"mini{ext}").write_text(text)
    return load_smps(str(tmp_path / "mini.cor"))


BOUND = "BOUNDS\n {}\nENDATA"
QUAD = "QUADOBJ\n    {}\nENDATA"


@pytest.mark.parametrize("edits, exc, line_no", [
    (dict(core=[(" L  R2", " L  R2  R3")]), MalformedSection, 5),
    (dict(core=[(" L  R2", " X  R2")]), MalformedSection, 5),
    (dict(core=[(" N  OBJ", " E  OBJ")]), MalformedSection, None),
    (dict(core=[("X1        R2        1.0", "X1        R2")]), MalformedSection, 8),
    (dict(core=[("X1        R2        1.0", "X1        R1        2.0")]), DuplicateName, None),
    (dict(core=[("R2        4.0", "R2")]), MalformedSection, 11),
    (dict(core=[("R2        4.0", "R9        4.0")]), UnknownRow, None),
    (dict(core=[("ENDATA", BOUND.format("UP BND"))]), MalformedSection, 13),
    (dict(core=[("ENDATA", BOUND.format("UP BND       ZZ        1.0"))]), UnknownName, None),
    (dict(core=[("ENDATA", BOUND.format("UP BND       X1"))]), MalformedSection, 13),
    (dict(core=[("ENDATA", BOUND.format("BV BND       X1"))]), UnsupportedStructure, None),
    (dict(core=[("ENDATA", QUAD.format("X1        X1"))]), MalformedSection, 13),
    (dict(core=[("ENDATA", QUAD.format("X1        ZZ        1.0"))]), UnknownName, None),
    (dict(time=[("Y1        R2        PERIOD2", "Y1        R2")]), MalformedSection, 4),
    (dict(time=[("IMPLICIT", "EXPLICIT")]), UnsupportedStructure, None),
    (dict(time=[("Y1        R2", "Y1        R9")]), UnknownName, None),
    (dict(stoch=[("5.0   PERIOD2   0.6", "5.0")]), MalformedSection, 4),
    (dict(stoch=[("RHS       R2        3.0", "RHS       R9        3.0")]), UnknownName, None),
    (dict(stoch=[("RHS       R2        3.0", "ZZ        R2        3.0")]), UnknownName, None),
    (dict(stoch=[("3.0   PERIOD2", "abc   PERIOD2")]), MalformedSection, 3),
    (dict(stoch=[("RHS       R2", "RHS       R1")]), UnsupportedStructure, None),
    (dict(core=[("ENDATA", BOUND.format("LO BND       Y1        1.0"))]), UnsupportedStructure, None),
    (dict(core=[("ENDATA", QUAD.format("X1        Y1        1.0"))]), UnsupportedStructure, None),
    (dict(core=[("Y1        OBJ       2.0    R2", "Y1        OBJ       2.0    R1")]),
     UnsupportedStructure, None),
], ids=[
    "rows-arity", "rows-sense", "rows-no-objective", "columns-arity", "columns-duplicate",
    "rhs-arity", "rhs-unknown-row", "bounds-arity", "bounds-unknown-column",
    "bounds-missing-value", "bounds-unsupported-type", "quadobj-arity", "quadobj-unknown-column",
    "periods-arity", "time-style", "time-unknown-row", "indep-arity", "stoch-unknown-row",
    "stoch-unknown-column", "stoch-bad-number", "stoch-first-stage-row",
    "second-stage-lower-bound", "quadobj-second-stage", "first-stage-row-second-stage-column",
])
def test_malformed_triple_raises_its_typed_error(tmp_path, edits, exc, line_no):
    with pytest.raises(exc) as err:
        _load_edited(tmp_path, **edits)
    assert type(err.value) is exc
    if exc is MalformedSection:
        assert err.value.line_no == line_no


def test_random_objective_coefficient_is_unsupported(tmp_path):
    stoch = [("RHS       R2        3.0", "X1        OBJ       3.0"),
             ("RHS       R2        5.0", "X1        OBJ       5.0")]
    with pytest.raises(UnsupportedStructure, match="random objective coefficients"):
        _load_edited(tmp_path, stoch=stoch)


@pytest.mark.parametrize("edits, match", [
    (dict(core=[("ENDATA", "FOO\n    A         B         1.0\nENDATA")]), "unknown CORE section"),
    (dict(core=[(" N  OBJ", " N  OBJ\n N  COST2")]), "extra free row"),
    (dict(core=[("R2        4.0\n", "R2        4.0\n    RHS       OBJ       9.0\n")]),
     "objective-row RHS"),
    (dict(time=[("ENDATA", "FOO\n    X1        R1        PERIOD1\nENDATA")]), "unknown TIME section"),
    (dict(stoch=[("ENDATA", "FOO\n    RHS       R2        1.0       1.0\nENDATA")]),
     "unknown STOCH section"),
], ids=["core-section", "extra-free-row", "objective-rhs", "time-section", "stoch-section"])
def test_ignored_input_warns(tmp_path, edits, match):
    with pytest.warns(UserWarning, match=match):
        problem, _ = _load_edited(tmp_path, **edits)
    assert problem.support_size() == 2


@pytest.mark.parametrize("edits, check", [
    (dict(core=[("ENDATA", BOUND.format("LO BND       X1        -1.0"))]),
     lambda p: p.lower_bounds[0] == -1.0),
    (dict(core=[("ENDATA", BOUND.format("FR BND       X1"))]),
     lambda p: p.lower_bounds[0] == -np.inf),
    (dict(stoch=[("3.0   PERIOD2   0.4", "3.0   0.4"), ("5.0   PERIOD2   0.6", "5.0   0.6")]),
     lambda p: (p.stochastic_map[0].dist.values, p.stochastic_map[0].dist.probs)
     == ((3.0, 5.0), (0.4, 0.6))),
    (dict(core=[(" L  R2\n", " L  R2\n   \n")]), lambda p: (p.m1, p.m2) == (1, 1)),
], ids=["lo-bound", "fr-bound", "indep-four-tokens", "blank-line"])
def test_accepted_forms(tmp_path, edits, check):
    problem, _ = _load_edited(tmp_path, **edits)
    assert check(problem)


def _random_triple(rng):
    """CORE, TIME and STOCH texts of a random two-stage instance.

    Both stages mix E, L and G rows; first-stage columns take one or two
    records of LO, UP, FX, MI, FR and PL bounds, second-stage columns UP (a
    positive value) or PL; QUADOBJ terms join first-stage columns; RHS and
    technology entries get discrete marginals in the 4- and 5-token forms.
    """
    def value():
        return repr(float(rng.choice([0.0, -0.0, 1.0, -2.5, 10.0 * rng.standard_normal()])))

    rows1 = [f"A{i}" for i in range(rng.integers(0, 4))]
    rows2 = [f"B{i}" for i in range(rng.integers(1, 4))]
    cols1 = [f"X{j}" for j in range(rng.integers(1, 4))]
    cols2 = [f"Y{j}" for j in range(rng.integers(1, 4))]
    core = ["NAME RAND", "ROWS", " N  OBJ"]
    core += [f" {rng.choice(['E', 'L', 'G'])}  {r}" for r in rows1 + rows2]
    core.append("COLUMNS")
    for col in cols1 + cols2:
        core.append(f"    {col}  OBJ  {value()}")
        rows = rows1 + rows2 if col in cols1 else rows2
        core += [f"    {col}  {r}  {value()}" for r in rows if rng.random() < 0.6]
    core.append("RHS")
    core += [f"    RHS  {r}  {value()}" for r in rows1 + rows2 if rng.random() < 0.7]
    core.append("BOUNDS")
    for col in cols1:
        for btype in rng.choice(["LO", "UP", "FX", "MI", "FR", "PL"], size=rng.integers(0, 3)):
            core.append(f" {btype} BND  {col}  {value() if btype in ('LO', 'UP', 'FX') else ''}")
    for col in cols2:
        btype = rng.choice(["", "UP", "PL"])
        if btype:
            core.append(f" {btype} BND  {col}  {repr(rng.uniform(0.5, 5.0)) if btype == 'UP' else ''}")
    core.append("QUADOBJ")
    for _ in range(rng.integers(0, 3)):
        core.append(f"    {rng.choice(cols1)}  {rng.choice(cols1)}  {value()}")
    core.append("ENDATA")
    time = ["TIME RAND", "PERIODS IMPLICIT", f"    X0  {(rows1 + rows2)[0]}  PERIOD1",
            f"    Y0  {rows2[0]}  PERIOD2", "ENDATA"]
    stoch = ["STOCH RAND", "INDEP DISCRETE"]
    for col in ["RHS"] + cols1:
        for r in rows2:
            if rng.random() < 0.4:
                probs = [(1.0,), (0.5, 0.5), (0.25, 0.75), (0.2, 0.3, 0.5)][rng.integers(4)]
                period = "  PERIOD2" if rng.random() < 0.5 else ""
                stoch += [f"    {col}  {r}  {value()}{period}  {p!r}" for p in probs]
    stoch.append("ENDATA")
    return "\n".join(core) + "\n", "\n".join(time) + "\n", "\n".join(stoch) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_assemble_gives_the_reference_arrays(seed):
    core_text, time_text, stoch_text = _random_triple(np.random.default_rng(seed))
    core = parse_core(core_text)
    split = parse_time(time_text, core)
    marginals = parse_stoch(stoch_text, core)
    problem, _ = assemble(core, split, marginals)
    ref, _ = reference.assemble(core, split, marginals)
    for name in ("Q", "c", "A", "b", "D", "d", "xi", "C", "lower_bounds"):
        got, want = getattr(problem, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert problem.stochastic_map == ref.stochastic_map


def test_fixed_second_stage_column_gets_its_row_and_no_slack():
    # y1 = 0 (FX 0) needs no slack: the reference adds one, held at 0 by y1 + s = 0
    core = parse_core(MINI_CORE.replace("ENDATA", BOUND.format("FX BND       Y1        0.0")))
    split = parse_time(MINI_TIME, core)
    marginals = parse_stoch(MINI_STOCH, core)
    problem, _ = assemble(core, split, marginals)
    old, _ = reference.assemble(core, split, marginals)
    # columns y1 s(R2); rows R2, y1 = 0
    np.testing.assert_array_equal(problem.D, [[1, 1], [1, 0]])
    np.testing.assert_array_equal(old.D, [[1, 1, 0], [1, 0, 1]])
    np.testing.assert_array_equal(problem.d, [2, 0])
    np.testing.assert_array_equal(problem.xi, [4, 0])
    np.testing.assert_array_equal(problem.xi, old.xi)
    np.testing.assert_array_equal(problem.C, old.C)
    np.testing.assert_array_equal(problem.A, old.A)
    value = extensive_form(problem, enumerate_support(problem)).solve().value
    assert value == pytest.approx(extensive_form(old, enumerate_support(old)).solve().value, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)

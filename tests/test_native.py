import numpy as np
import pytest

from instances import make_two_stage
from scsopt.exceptions import MalformedSection, ParseError
from scsopt.model import Normal, RandomEntry, TwoStageProblem, Uniform, enumerate_support, true_objective
from scsopt.native import load_native, parse_native, write_native

MINIMAL = """
# tiny two-stage instance
NAME tiny
MATRICES
Q 2 2
1.0 0.0
0.0 1.0
c 2
-1.0 -2.0
A 1 2
1.0 1.0
b 1
1.0
D 1 3
1.0 1.0 -1.0
d 3
0.5 2.0 2.0
xi 1
0.3
C 1 2
0.2 0.1
BOUNDS
lower 0.0 0.0
recourse 0.0 5.0
STOCH
rhs 0 discrete 0.2:0.5 0.6:0.5
END
"""


def test_parse_minimal():
    p = parse_native(MINIMAL)
    assert p.name == "tiny"
    assert p.n1 == 2 and p.n2 == 3 and p.m1 == 1 and p.m2 == 1
    np.testing.assert_allclose(p.Q, np.eye(2))
    np.testing.assert_allclose(p.lower_bounds, [0.0, 0.0])
    assert p.recourse_lo == 0.0 and p.recourse_hi == 5.0
    assert len(p.stochastic_map) == 1
    assert p.support_size() == 2


def test_missing_matrix_is_malformed():
    text = MINIMAL.replace("xi 1\n0.3\n", "")
    with pytest.raises(MalformedSection, match="xi"):
        parse_native(text)


def test_bad_discrete_atom():
    text = MINIMAL.replace("0.2:0.5 0.6:0.5", "0.2:0.5 0.6:oops")
    with pytest.raises(MalformedSection):
        parse_native(text)


def test_unknown_distribution():
    text = MINIMAL.replace("discrete 0.2:0.5 0.6:0.5", "cauchy 0 1")
    with pytest.raises(MalformedSection, match="cauchy"):
        parse_native(text)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="no_such"):
        load_native(str(tmp_path / "no_such.prob"))


def test_round_trip_preserves_values(tmp_path):
    p = make_two_stage(seed=77, n1=4, m1=2, m2=2, n_base=2, rhs_random=2,
                       tech_random=1, support_k=(3, 2))
    path = tmp_path / "round.prob"
    write_native(p, path)
    q, sampler = load_native(str(path), seed=1)
    np.testing.assert_array_equal(p.Q, q.Q)
    np.testing.assert_array_equal(p.A, q.A)
    np.testing.assert_array_equal(p.D, q.D)
    np.testing.assert_array_equal(p.xi, q.xi)
    np.testing.assert_array_equal(p.C, q.C)
    np.testing.assert_array_equal(p.lower_bounds, q.lower_bounds)
    assert p.recourse_hi == q.recourse_hi
    assert len(p.stochastic_map) == len(q.stochastic_map)
    sup_p, sup_q = enumerate_support(p), enumerate_support(q)
    assert len(sup_p) == len(sup_q)
    x = np.full(p.n1, 0.4)
    assert true_objective(p, sup_p, x) == pytest.approx(true_objective(q, sup_q, x), abs=1e-12)


def test_quadratic_recourse_round_trip(tmp_path):
    p = make_two_stage(seed=78, n1=3, m1=1, m2=2, n_base=2, rhs_random=1,
                       support_k=(2,), quadratic=True)
    path = tmp_path / "qq.prob"
    write_native(p, path)
    q, _ = load_native(str(path))
    assert q.quadratic_recourse
    np.testing.assert_array_equal(p.P, q.P)


def test_round_trip_with_continuous_marginals_a_name_and_a_free_first_stage(tmp_path):
    base = parse_native(MINIMAL)
    p = TwoStageProblem(Q=base.Q, c=base.c, A=base.A, b=base.b, D=base.D, d=base.d, xi=base.xi,
                        C=base.C, name="free_tiny", stochastic_map=[
                            RandomEntry("rhs", 0, dist=Uniform(0.1, 0.7)),
                            RandomEntry("tech", 0, 1, dist=Normal(0.1, 0.3))])
    path = tmp_path / "free.prob"
    write_native(p, path)
    assert "lower -inf -inf" in path.read_text().splitlines()
    q, _ = load_native(str(path))
    assert q.name == "free_tiny"
    np.testing.assert_array_equal(q.lower_bounds, [-np.inf, -np.inf])
    assert q.stochastic_map == p.stochastic_map
    assert q.support_size() is None


def test_lower_none_still_loads_as_a_free_first_stage():
    p = parse_native(MINIMAL.replace("lower 0.0 0.0", "lower none"))
    np.testing.assert_array_equal(p.lower_bounds, [-np.inf, -np.inf])
    assert p.recourse_lo == 0.0 and p.recourse_hi == 5.0


@pytest.mark.parametrize("old, new, line_no", [
    ("\nEND\n", "\n", None),
    ("Q 2 2", "Q two 2", 5),
    ("1.0 0.0\n0.0 1.0", "1.0 zero\n0.0 1.0", 6),
    ("MATRICES", "MATRIX", None),
    ("\nEND\n", "\nFIN\n", None),
    ("c 2\n-1.0 -2.0\n", "c 2\n-1.0 -2.0\nc 2\n-1.0 -2.0\n", None),
    ("0.2:0.5 0.6:0.5", "0.2:0.5 0.6:0.6", 26),
], ids=["end-of-file", "bad-integer", "bad-float", "missing-matrices", "missing-end",
        "repeated-matrix", "bad-discrete-marginal"])
def test_malformed_document_names_its_line(old, new, line_no):
    assert old in MINIMAL
    with pytest.raises(MalformedSection) as err:
        parse_native(MINIMAL.replace(old, new))
    assert err.value.line_no == line_no

import json

import pytest

from ffheight import cli
from ffheight.cli import CONFORMANCE_ERROR, USAGE_ERROR, main
from ffheight.suite import CheckRow


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


def test_expand(capsys):
    code, lines, _ = run(
        capsys, "expand", "--eq", "y - x^2", "--b", "2", "--q", "5"
    )
    assert code == 0
    assert lines
    assert len(lines[0]["vars"]) == 4


def test_census_count(capsys):
    code, lines, _ = run(
        capsys,
        "census", "count", "--eq", "y - x^3", "--b", "3", "--q", "3,5",
    )
    assert code == 0
    counts = {row["q"]: row["count"] for row in lines}
    assert counts == {3: 3, 5: 5}


def test_census_dim_conforming(capsys):
    code, lines, _ = run(
        capsys,
        "census", "dim", "--eq", "y - x^2", "--m", "1", "--b", "2",
        "--q", "3,5,7",
    )
    assert code == 0
    row = lines[-1]
    assert row["dim"] == 1
    assert row["conforms"] is True


def test_census_dim_violated_bound_exits_1(capsys):
    # claim the parabola is 0-dimensional: the fit must refute it
    code, lines, _ = run(
        capsys,
        "census", "dim", "--eq", "y - x^2", "--m", "0", "--b", "2",
        "--q", "3,5,7",
    )
    assert code == CONFORMANCE_ERROR
    assert lines[-1]["conforms"] is False


def test_census_dim_zero_count_exits_1(capsys):
    # x^2 = -1 has no root over F_3, F_7 or F_11: no slope to fit
    code, lines, err = run(
        capsys,
        "census", "dim", "--eq", "x^2 + 1", "--names", "x", "--m", "0",
        "--b", "1", "--q", "3,7,11",
    )
    assert code == CONFORMANCE_ERROR
    assert lines[-1]["counts"] == [0, 0, 0]
    assert lines[-1]["slope"] is None
    assert "no fit: a count is 0" in err


def test_census_count_nonpositive_b_exits_2(capsys):
    code, lines, _ = run(
        capsys,
        "census", "count", "--ambient", "projective", "--eq", "x^2+y^2+z^2",
        "--b", "0", "--q", "3",
    )
    assert code == USAGE_ERROR
    assert lines[-1]["reason"] == "b must be a positive integer"


def test_lattice_height_scaled_identity(capsys):
    code, lines, _ = run(
        capsys,
        "lattice", "height", "--matrix", '[["t", "0"], ["0", "t"]]', "--q", "5",
    )
    assert code == 0
    assert lines[0]["height"] == 0


def test_lattice_reduce_and_count(capsys):
    code, lines, _ = run(
        capsys,
        "lattice", "reduce", "--matrix", '[["1", "t"], ["t", "1"]]', "--q", "5",
    )
    assert code == 0
    assert "minima" in lines[0]
    code, lines, _ = run(
        capsys,
        "lattice", "count", "--matrix", '[["1", "0"], ["0", "1"]]',
        "--q", "5", "--b", "2",
    )
    assert code == 0
    assert lines[0]["log_q_count"] == 4


def test_lattice_kernel_and_shortvec(capsys):
    code, lines, _ = run(
        capsys,
        "lattice", "kernel", "--matrix", '[["t", "1", "0"]]', "--q", "5",
    )
    assert code == 0
    assert len(lines[0]["vectors"]) == 2
    code, lines, _ = run(
        capsys,
        "lattice", "shortvec", "--matrix", '[["t", "1", "0"]]', "--q", "5",
    )
    assert code == 0
    assert "vector" in lines[0]


def test_pell_solve(capsys):
    code, lines, _ = run(
        capsys, "pell", "solve", "--beta", "t^2 - 1", "--b", "1", "--q", "5"
    )
    assert code == 0
    js = lines[0]
    assert js["unit"] == ["t", "1"]
    assert js["count"] == len(js["solutions"])


def test_pell_family(capsys):
    code, lines, _ = run(capsys, "pell", "family", "--n", "1", "--q", "11")
    assert code == 0
    assert lines[0]["count"] == 2


@pytest.mark.parametrize("qargs", [(), ("--q", "5")], ids=["searched-q", "q5"])
def test_pell_family_n0_is_one_solution(capsys, qargs):
    code, lines, _ = run(capsys, "pell", "family", "--n", "0", *qargs)
    assert code == 0
    assert lines[0]["q"] == 5
    assert lines[0]["solutions"] == [["1", "0"]]


def test_groebner_dim(capsys):
    code, lines, _ = run(
        capsys, "groebner", "dim", "--eq", "x^2 - y", "--names", "x,y"
    )
    assert code == 0
    assert lines[0]["dim"] == 1


def test_groebner_member_expanded_cone(capsys):
    # coefficient ideal of t x^2 = y z at b = 2: x_1^2 lands inside, x_1 does not
    base = [
        "groebner", "member", "--ambient", "projective",
        "--eq", "t*x^2 - y*z", "--names", "x,y,z", "--b", "2", "--q", "5",
    ]
    code, lines, _ = run(capsys, *base, "--g", "x1^2")
    assert code == 0
    assert lines[0]["member"] is True
    code, lines, _ = run(capsys, *base, "--g", "x1")
    assert code == 0
    assert lines[0]["member"] is False


def test_detmethod_val(capsys):
    code, lines, _ = run(
        capsys,
        "detmethod", "val",
        "--points", "1:1:1;t:1:t^2",
        "--deg", "2", "--q", "5", "--p", "1",
    )
    assert code == 0
    assert lines[0]["e"] == sum(lines[0]["pivot_valuations"])
    assert lines[0]["s"] == 2


@pytest.mark.parametrize("mu", ["0", "-1"])
def test_detmethod_val_nonpositive_mu_exits_2(capsys, mu):
    code, lines, _ = run(
        capsys,
        "detmethod", "val",
        "--points", "1:1:1:1;t:1:1:1",
        "--deg", "1", "--q", "5", "--p", "1", "--mu", mu,
    )
    assert code == USAGE_ERROR
    assert lines[-1]["reason"] == "multiplicity must be a positive integer"


def test_detmethod_aux_projective(capsys):
    code, lines, _ = run(
        capsys,
        "detmethod", "aux",
        "--f", "x^2 - y*z", "--names", "x,y,z",
        "--b", "2", "--q", "5",
        "--class", "p=1,P=2:1:4",
    )
    assert code == 0
    assert lines[0]["M"] >= 2
    assert lines[0]["coprime_to_f"] is True


def test_usage_errors(capsys):
    code, lines, _ = run(capsys, "nonsense")
    assert code == USAGE_ERROR
    code, lines, _ = run(capsys, "expand", "--eq", "x^", "--b", "1", "--q", "5")
    assert code == USAGE_ERROR
    assert lines and lines[-1]["error"]
    assert lines[-1]["kind"] == "parse"


def test_budget_exit(capsys):
    code, lines, _ = run(
        capsys,
        "census", "count", "--eq", "x*y - z^2", "--names", "x,y,z",
        "--b", "6", "--q", "5", "--budget", "10",
    )
    assert code == CONFORMANCE_ERROR
    assert lines[-1]["reason"] == "budget"
    assert lines[-1]["estimate"] > 10


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FFHEIGHT_BUDGET", "10")
    code, lines, _ = run(
        capsys,
        "census", "count", "--eq", "x*y - z^2", "--names", "x,y,z",
        "--b", "6", "--q", "5",
    )
    assert code == CONFORMANCE_ERROR
    assert lines[-1]["reason"] == "budget"


def test_bad_budget_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FFHEIGHT_BUDGET", "abc")
    code, lines, _ = run(
        capsys, "census", "count", "--eq", "y - x^3", "--b", "2", "--q", "5"
    )
    assert code == USAGE_ERROR
    assert lines[-1]["error"] and "FFHEIGHT_BUDGET" in lines[-1]["reason"]


@pytest.mark.parametrize("point", ["0:0:0", "5:5:10"])
def test_detmethod_aux_zero_residue_point_exits_2(capsys, point):
    code, lines, _ = run(
        capsys,
        "detmethod", "aux",
        "--f", "x^2 - y*z", "--names", "x,y,z",
        "--b", "2", "--q", "5",
        "--class", f"p=1,P={point}",
    )
    assert code == USAGE_ERROR
    assert lines[-1]["error"] and "all zero" in lines[-1]["reason"]


def test_value_error_is_usage(capsys):
    # inhomogeneous projective equation
    code, lines, _ = run(
        capsys,
        "census", "count", "--ambient", "projective",
        "--eq", "x^2 - y", "--names", "x,y,z", "--b", "1", "--q", "5",
    )
    assert code == USAGE_ERROR
    assert "error" in lines[-1]


def test_stderr_is_human_stdout_is_json(capsys):
    code, lines, err = run(
        capsys, "census", "count", "--eq", "y - x^2", "--b", "2", "--q", "3"
    )
    assert code == 0
    for line in lines:
        assert isinstance(line, dict)
    # any stderr chatter must not be JSON rows
    for ln in err.splitlines():
        assert not ln.startswith("{")


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "count", "--eq", "1 + 2"),
        ("detmethod", "aux", "--f", "x^2 - y*z", "--q", "5", "--class", "junk"),
        ("groebner", "member", "--eq", "y - x^2", "--q", "5", "--g", "t*x"),
    ],
)
def test_bad_input_exits_2_with_parse_error(capsys, argv):
    code, lines, _ = run(capsys, *argv)
    assert code == USAGE_ERROR
    assert lines[-1]["error"] and lines[-1]["kind"] == "parse"


@pytest.mark.parametrize(
    "matrix",
    ['[["t"], [1]]', '{"a": 1}', "[]", "[[]]", '["t"]', '"t"'],
    ids=["int-entry", "object", "no-rows", "empty-row", "row-not-list", "string"],
)
def test_lattice_matrix_shape_exits_2(capsys, matrix):
    code, lines, _ = run(capsys, "lattice", "height", "--matrix", matrix, "--q", "5")
    assert code == USAGE_ERROR
    assert lines[-1]["error"] and lines[-1]["kind"] == "parse"


def test_detmethod_aux_without_f_exits_2(capsys):
    code, lines, _ = run(capsys, "detmethod", "aux", "--q", "5", "--class", "junk")
    assert code == USAGE_ERROR
    assert lines[-1]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("groebner", "member", "--eq", "y-x^2", "--names", "x,y", "--q", "5"),
        ("pell", "solve", "--q", "5"),
        ("detmethod", "val", "--q", "5"),
    ],
    ids=["groebner-member-without-g", "pell-solve-without-beta", "detmethod-val-without-points"],
)
def test_missing_mode_option_exits_2(capsys, argv):
    code, lines, _ = run(capsys, *argv)
    assert code == USAGE_ERROR
    assert lines[-1]["error"] and "needs --" in lines[-1]["reason"]


def test_census_suite_runs(capsys, monkeypatch):
    seen = {}

    def fake_suite(qs, bs, budget):
        seen.update(qs=qs, bs=bs)
        return [CheckRow("stub", "one check", "1", "1", True)]

    monkeypatch.setattr(cli, "run_example_suite", fake_suite)
    code, lines, _ = run(capsys, "census", "suite", "--q", "3,5,7", "--b-list", "1,2")
    assert code == 0
    assert seen == {"qs": (3, 5, 7), "bs": (1, 2)}
    assert lines == [CheckRow("stub", "one check", "1", "1", True).to_json()]


def test_groebner_takes_one_prime(capsys):
    code, lines, _ = run(
        capsys, "groebner", "dim", "--eq", "x^2 - y", "--names", "x,y", "--q", "3,5"
    )
    assert code == USAGE_ERROR
    assert lines == []

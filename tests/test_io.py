"""Model/instance format round-trips and command-line behavior."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miconic import cli, cones, instances
from miconic.cli import main
from miconic.compile import emit_conic
from miconic.conicio import read_conic, write_conic
from miconic.errors import (
    ArityError,
    FormatError,
    ModelSyntaxError,
    UnknownAtomError,
)
from miconic.modelio import _tokenize, parse_model, print_model
from miconic.oa import INFEASIBLE, OaConfig, OaOutcome, oa_solve

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCE_DIR = ROOT / "instances"


def _programs_equal(p, q):
    return (
        np.array_equal(p.c, q.c)
        and np.array_equal(p.A_x, q.A_x)
        and np.array_equal(p.A_z, q.A_z)
        and np.array_equal(p.b, q.b)
        and np.array_equal(p.L, q.L)
        and np.array_equal(p.U, q.U)
        and p.obj_offset == q.obj_offset
        and [(f.kind, f.dim, getattr(f, "alpha", None))
             for f in p.cones.factors]
        == [(f.kind, f.dim, getattr(f, "alpha", None))
            for f in q.cones.factors]
    )


# ------------------------------------------------------------ model format


def test_parse_single_variable_document():
    m = parse_model("(var x int 0 1) (min x) (le (square (sub x 0.5)) 0.25)")
    assert [v.name for v in m.variables] == ["x"]
    assert m.variables[0].integer
    assert len(m.constraints) == 1


def test_unclosed_item_reports_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("(var x 0 1) (min x) (le (square x)")
    assert err.value.line == 1
    assert err.value.col is not None


def test_unknown_atom_reports_position():
    with pytest.raises(UnknownAtomError) as err:
        parse_model("(var x 0 1) (min x) (le (frobnicate x) 0)")
    assert err.value.line == 1


def test_wrong_arity_reports_position():
    with pytest.raises(ArityError):
        parse_model("(var x 1 2) (min x) (le (geo_mean x) 0)")


def test_undeclared_variable_is_an_error():
    with pytest.raises(ModelSyntaxError):
        parse_model("(min y)")


def test_duplicate_variable_and_objective_are_errors():
    with pytest.raises(ModelSyntaxError):
        parse_model("(var x 0 1) (var x 0 2) (min x)")
    with pytest.raises(ModelSyntaxError):
        parse_model("(var x 0 1) (min x) (min x)")


def test_integer_variable_requires_bounds():
    with pytest.raises(ModelSyntaxError):
        parse_model("(var x int) (min x)")


@pytest.mark.parametrize("text, col", [
    ("(var x 0 1) (min x) (le x inf)", 27),
    ("(var x 0 1) (min (mul inf x))", 23),
    ("(var x 0 1) (min (add x -inf))", 25),
    # finite numbers whose product overflows: reported at the form
    ("(var x 0 1) (min (mul 1e200 (mul 1e200 x)))", 19),
])
def test_a_non_finite_number_in_an_expression_reports_position(text, col):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_power_form_round_trips():
    m = parse_model("(var x 1 4) (min (pow 3 x))")
    text = print_model(m)
    assert "(pow 3 x)" in text
    assert print_model(parse_model(text)) == text


def test_one_sided_bounds_round_trip():
    m = parse_model("(var x 0 inf) (var y -inf 5) (min (add x y))")
    text = print_model(m)
    m2 = parse_model(text)
    assert m2.variables[0].lb == 0 and m2.variables[0].ub == float("inf")
    assert m2.variables[1].lb == -float("inf") and m2.variables[1].ub == 5


# each malformed document with the diagnostic the reader gives for it:
# exception class, message, line and column
_MALFORMED = [
    ('x',
     ModelSyntaxError, "expected '(', found 'x'", 1, 1),
    (')',
     ModelSyntaxError, "expected '(', found ')'", 1, 1),
    ('(',
     ModelSyntaxError, 'unexpected end of input', 1, 2),
    ('()',
     ModelSyntaxError, 'expected an item keyword', 1, 2),
    ('((var x))',
     ModelSyntaxError, 'expected an item keyword', 1, 2),
    ('(foo x)',
     ModelSyntaxError,
     "unknown item 'foo' (expected var, min, le or eq)", 1, 2),
    ('(var x) (min x) (min x)',
     ModelSyntaxError, 'duplicate objective', 1, 18),
    ('(var x) (min x',
     ModelSyntaxError, "unexpected end of input (expected ')')", 1, 15),
    ('(var x) (min x y)',
     ModelSyntaxError, "expected ')', found 'y'", 1, 16),
    ('(var x) (le x)',
     ModelSyntaxError, "unexpected ')'", 1, 14),
    ('(var x) (le x 1',
     ModelSyntaxError, "unexpected end of input (expected ')')", 1, 16),
    ('(var x) (eq x (mul 2 x) 3)',
     ModelSyntaxError, "expected ')', found '3'", 1, 25),
    ('(var x) (min (add x)))',
     ModelSyntaxError, "expected '(', found ')'", 1, 22),
    ('(var)',
     ModelSyntaxError, 'expected a variable name', 1, 5),
    ('(var 3)',
     ModelSyntaxError, 'expected a variable name', 1, 6),
    ('(var x) (var x)',
     ModelSyntaxError, "duplicate variable 'x'", 1, 14),
    ('(var x int)',
     ModelSyntaxError,
     "integer variable 'x' needs finite lower and upper bounds", 1, 11),
    ('(var x 2 1)',
     ModelSyntaxError, "variable 'x' has lb > ub", 1, 11),
    ('(var x a 1)',
     ModelSyntaxError,
     "expected a number for the lower bound, found 'a'", 1, 8),
    ('(var x 0 b)',
     ModelSyntaxError,
     "expected a number for the upper bound, found 'b'", 1, 10),
    ('(var x 0 1 2)',
     ModelSyntaxError, "expected ')', found '2'", 1, 12),
    ('(var x 0',
     ModelSyntaxError, 'unexpected end of input', 1, 9),
    ('(var x) (min (',
     ModelSyntaxError, 'unexpected end of input', 1, 15),
    ('(var x) (min (()',
     ModelSyntaxError, 'expected an operator or atom name', 1, 15),
    ('(var x) (min ())',
     ModelSyntaxError, 'expected an operator or atom name', 1, 15),
    ('(var x) (min (mul y x))',
     ModelSyntaxError, 'mul needs a leading numeric coefficient', 1, 19),
    ('(var x) (min (mul x))',
     ModelSyntaxError, 'mul needs a leading numeric coefficient', 1, 19),
    ('(var x) (min (mul',
     ModelSyntaxError, 'unexpected end of input', 1, 18),
    ('(var x) (min (pow x x))',
     ModelSyntaxError, 'pow needs a leading numeric exponent', 1, 19),
    ('(var x) (min (pow 0.5 x))',
     ModelSyntaxError,
     "atom 'pow_rational' needs a numeric parameter >= 1", 1, 15),
    ('(var x) (min (pow 2 x x))',
     ArityError, "'pow' takes exactly 1 argument(s), got 2", 1, 15),
    ('(var x) (min (pow 2))',
     ArityError, "'pow' takes exactly 1 argument(s), got 0", 1, 15),
    ('(var x) (min (pow_rational x))',
     ArityError, "atom 'pow_rational' needs a numeric parameter >= 1", 1, 15),
    ('(var x) (min (add))',
     ArityError, "'add' takes at least 1 argument(s), got 0", 1, 15),
    ('(var x) (min (sub x))',
     ArityError, "'sub' takes exactly 2 argument(s), got 1", 1, 15),
    ('(var x) (min (sub x x x))',
     ArityError, "'sub' takes exactly 2 argument(s), got 3", 1, 15),
    ('(var x) (min (mul 2 x x))',
     ArityError, "'mul' takes exactly 1 argument(s), got 2", 1, 15),
    ('(var x) (min (abs x x))',
     ArityError, "atom 'abs' does not accept 2 argument(s)", 1, 15),
    ('(var x) (min (geo_mean x))',
     ArityError, "atom 'geo_mean' does not accept 1 argument(s)", 1, 15),
    ('(var x) (min (foo x))',
     UnknownAtomError, "unknown atom 'foo'", 1, 15),
    ('(var x) (min (foo',
     UnknownAtomError, "unknown atom 'foo'", 1, 15),
    ('(var x) (min y)',
     ModelSyntaxError, "undeclared variable 'y'", 1, 14),
    ('(var x) (min (max x nan))',
     ModelSyntaxError, "undeclared variable 'nan'", 1, 21),
    ('(var x) (min (add x',
     ModelSyntaxError, "unclosed '(' for 'add'", 1, 20),
    ('(var x) (min (abs (exp x)',
     ModelSyntaxError, "unclosed '(' for 'abs'", 1, 26),
    ('(var x)\n; a comment (\n(min (add x\n  (exp x) ; trailing',
     ModelSyntaxError, "unclosed '(' for 'add'", 4, 10),
    ('(var x)\r\n\t(min\t(foo x))',
     UnknownAtomError, "unknown atom 'foo'", 2, 8),
    ('(var x) (le (add x 1 (sub x 2) (mul 3 (pow 2 x)))\n'
     '   (max x x (sub 1)))',
     ArityError, "'sub' takes exactly 2 argument(s), got 1", 2, 14),
]


@pytest.mark.parametrize("text, cls, message, line, col", _MALFORMED)
def test_malformed_document_diagnostics(text, cls, message, line, col):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(text)
    assert type(err.value) is cls
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == "line %d, col %d: %s" % (line, col, message)


def _reference_tokens(text):
    # character by character: ';' comments to the end of the line, only
    # space, tab, CR and LF separate words, and every character is a column
    tokens, word = [], None
    line, col = 1, 1
    in_comment = False
    for ch in text + "\n":
        if ch == "\n":
            in_comment = False
        if in_comment or ch in ";\n \t\r()":
            if word is not None:
                tokens.append(word)
                word = None
            if ch in "()" and not in_comment:
                tokens.append((ch, line, col))
            in_comment = in_comment or ch == ";"
        elif word is None:
            word = (ch, line, col)
        else:
            word = (word[0] + ch,) + word[1:]
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    return tokens


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet="();\n \t\r\x0b\x0cax1.-\u00e9", max_size=60))
def test_tokens_match_a_character_by_character_scan(text):
    got = [(t.text, t.line, t.col) for t in _tokenize(text)]
    assert got == _reference_tokens(text)


def _running_max_document(n):
    """min max(...max(max(x0, x1), x2)..., x{n-1}), nested n - 1 deep."""
    return ("".join("(var x%d -1 1)\n" % i for i in range(n))
            + "(min " + "(max " * (n - 1) + "x0"
            + "".join(" x%d)" % i for i in range(1, n)) + ")\n")


def test_deep_document_reads_and_prints_without_recursion():
    m = parse_model(_running_max_document(2000))
    text = print_model(m)
    assert text.count("(max ") == 1999
    assert print_model(parse_model(text)) == text


@pytest.mark.parametrize("build", [
    instances.disk_model,
    instances.trimloss_model,
    lambda: instances.empty_ball_model(3, "naive"),
    lambda: instances.empty_ball_model(3, "extended"),
])
def test_print_parse_fixpoint_preserves_the_program(build):
    model = build()
    text = print_model(model)
    again = parse_model(text)
    assert print_model(again) == text
    assert _programs_equal(emit_conic(model)[0], emit_conic(again)[0])


def test_shipped_disaggregated_ball_document_shape():
    text = (INSTANCE_DIR / "empty_ball_ext_2.model").read_text()
    m = parse_model(text)
    assert sum(v.integer for v in m.variables) == 2
    assert len(m.constraints) == 3  # two epigraphs and one budget row


def test_aggregated_ball_compiles_to_one_second_order_factor():
    prog, _ = emit_conic(instances.empty_ball_model(2, "naive"))
    assert sum(f.kind == cones.SOC for f in prog.cones.factors) == 1


# ------------------------------------------------------------ conic format


def test_conic_round_trip_on_random_programs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = instances.random_feasible_program(rng)
        assert _programs_equal(p, read_conic(write_conic(p)))
    for _ in range(5):
        p = instances.random_infeasible_program(rng)
        assert _programs_equal(p, read_conic(write_conic(p)))


def test_shipped_pathology_instance_shape():
    text = (INSTANCE_DIR / "rsoc_duality_failure.conic").read_text()
    p = read_conic(text)
    assert p.num_integer == 1
    assert p.num_rows == 1
    assert [(f.kind, f.dim) for f in p.cones.factors] == [(cones.RSOC, 3)]


def _pathology_text():
    return write_conic(instances.duality_failure_program())


def test_unknown_section_is_rejected():
    with pytest.raises(FormatError) as err:
        read_conic(_pathology_text() + "\nBOGUS\n0\n")
    assert "BOGUS" in str(err.value)


def test_bad_version_is_rejected():
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("VER\n1", "VER\n2"))


def test_missing_section_is_rejected():
    text = _pathology_text()
    start = text.index("VARZ")
    end = text.index("AX")
    with pytest.raises(FormatError) as err:
        read_conic(text[:start] + text[end:])
    assert "VARZ" in str(err.value)


def test_out_of_range_objective_entry_is_rejected():
    bad = _pathology_text().replace("OBJ\n0\n1\n2 1", "OBJ\n0\n1\n7 1")
    with pytest.raises(FormatError) as err:
        read_conic(bad)
    assert "OBJ" in str(err.value)


def test_cone_dimension_and_parameter_validation():
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "exp 4"))
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "pow 3"))
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "pyramid 3"))
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "exp 3 0.5"))
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "rsoc 0"))
    with pytest.raises(FormatError):
        read_conic(_pathology_text().replace("rsoc 3", "expdual 3"))


def test_duplicate_triplet_is_rejected():
    bad = _pathology_text().replace("AZ\n1\n0 0 1", "AZ\n2\n0 0 1\n0 0 1")
    with pytest.raises(FormatError):
        read_conic(bad)


@pytest.mark.parametrize("section, old, new", [
    ("VARX", "VARX\n1\n0 0 1", "VARX\n1\n1 0 1"),
    ("VARX", "VARX\n1\n0 0 1", "VARX\n2\n0 0 1\n0 0 1"),
    ("VARX", "VARX\n1\n0 0 1", "VARX\n1\n0 2 1"),
    ("OBJ", "OBJ\n0\n1\n2 1", "OBJ\n0\n2\n2 1\n2 1"),
    ("B", "B\n1 0", "B\n1 1\n1 1"),
    ("B", "B\n1 0", "B\n1 2\n0 1\n0 1"),
    ("AX", "\nAX\n1\n0 0 1", "\nAX\n1\n0 1 1"),
    ("AZ", "\nAZ\n1\n0 0 1", "\nAZ\n1\n1 0 1"),
], ids=["varx-range", "varx-twice", "varx-bounds", "obj-twice",
        "b-range", "b-twice", "ax-range", "az-range"])
def test_bad_sparse_entry_is_rejected_in_its_section(section, old, new):
    text = _pathology_text()
    assert old in text
    with pytest.raises(FormatError) as err:
        read_conic(text.replace(old, new))
    assert str(err.value).startswith("section %s" % section)


@pytest.mark.parametrize("section, old, new, cause", [
    ("OBJ", "OBJ\n0\n", "OBJ\nnan\n", "non-finite objective offset"),
    ("OBJ", "OBJ\n0\n1\n2 1", "OBJ\n0\n1\n2 inf",
     "non-finite objective entry"),
    ("VARX", "VARX\n1\n0 0 1", "VARX\n1\n0 0 inf",
     "non-finite integer column"),
    ("AX", "\nAX\n1\n0 0 1", "\nAX\n1\n0 0 -inf",
     "non-finite matrix triplet"),
    ("AZ", "\nAZ\n1\n0 0 1", "\nAZ\n1\n0 0 nan",
     "non-finite matrix triplet"),
    ("B", "B\n1 0", "B\n1 1\n0 nan", "non-finite rhs entry"),
    ("B", "B\n1 0", "B\n1 1", "unexpected end of file"),
    ("VARX", "VARX\n1\n0 0 1", "VARX\n1\n0 0", "expected 3 field(s)"),
    ("AZ", "\nAZ\n1\n0 0 1", "\nAZ\n1\n0 0 x", "bad matrix triplet"),
    ("OBJ", "OBJ\n0\n1\n2 1", "OBJ\n0\n-1\n2 1", "negative count"),
    ("VER", "B\n1 0", "B\n1 0\nVER\n1", "duplicate section"),
    ("VARZ", "VARZ\n1\nrsoc 3\n\nAX\n1\n0 0 1\n\nAZ\n1\n0 0 1\n\nB\n1 0\n",
     "VARZ\n2\nrsoc 3\n", "unexpected end of file in cone list"),
    ("VARZ", "VARZ\n1\nrsoc 3", "VARZ\n1\nrsoc", "cone lines are"),
    ("B", "B\n1 0", "B\n-1 0", "negative count in B header"),
], ids=["obj-offset-nan", "obj-entry-inf", "varx-bound-inf", "ax-inf",
        "az-nan", "b-nan", "end-of-file", "field-count", "unparsable",
        "negative-count", "duplicate-section", "end-of-cone-list",
        "cone-line", "negative-b-count"])
def test_malformed_text_is_rejected_in_its_section(section, old, new, cause):
    text = _pathology_text()
    assert old in text
    with pytest.raises(FormatError) as err:
        read_conic(text.replace(old, new))
    assert str(err.value).startswith("section %s" % section)
    assert cause in str(err.value)


# ------------------------------------------------------------------- CLI


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check_valid_model(capsys):
    code, out, _ = _run(["check", str(INSTANCE_DIR / "disk.model")], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_check_rejects_nonconvex_model(tmp_path, capsys):
    doc = tmp_path / "bad.model"
    doc.write_text("(var x 1 2) (min x) (le (log x) 0)\n")
    code, out, _ = _run(["check", str(doc)], capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict["ok"] is False
    assert verdict["violations"]


def test_cli_solve_model_json_and_exit(capsys):
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "empty_ball_ext_4.model"),
         "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "infeasible"
    assert result["iterations"] <= 3
    assert result["wall_time_sec"] is None


def test_cli_solve_pathology_exits_3(capsys):
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "rsoc_duality_failure.conic"),
         "--no-timing"], capsys)
    assert code == 3
    assert json.loads(out)["status"] == "assumption_failure"


def test_cli_output_is_deterministic(capsys):
    argv = ["solve", str(INSTANCE_DIR / "disk.model"), "--no-timing"]
    _, first, _ = _run(argv, capsys)
    _, second, _ = _run(argv, capsys)
    assert first == second


def test_cli_compile_then_solve_matches_direct_solve(tmp_path, capsys):
    emitted = tmp_path / "trimloss.conic"
    code, _, _ = _run(
        ["compile", str(INSTANCE_DIR / "trimloss_toy.model"),
         "-o", str(emitted)], capsys)
    assert code == 0
    assert not list(tmp_path.glob(".miconic-*"))
    _, direct, _ = _run(
        ["solve", str(INSTANCE_DIR / "trimloss_toy.model"), "--no-timing"],
        capsys)
    _, via_file, _ = _run(["solve", str(emitted), "--no-timing"], capsys)
    assert direct == via_file


def test_cli_compile_onto_a_directory_leaves_no_temporary_file(
        tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = _run(
        ["compile", str(INSTANCE_DIR / "disk.model"), "-o", str(target)],
        capsys)
    assert code == 2 and not out
    assert err.startswith("error: ") and "Is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert not list(target.iterdir())


def test_cli_check_compile_and_solve_agree_on_a_constant_atom(
    tmp_path, capsys,
):
    # square(3) sits on the lower side of the constraint; it is evaluated
    doc = tmp_path / "constant.model"
    doc.write_text(
        "(var x -10 10) (min x) (le (sub -20 (add x (square 3))) 0)\n")
    code, out, _ = _run(["check", str(doc)], capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    code, _, _ = _run(["compile", str(doc), "-o", str(tmp_path / "c.conic")],
                      capsys)
    assert code == 0
    code, out, _ = _run(["solve", str(doc), "--no-timing"], capsys)
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(-10.0, abs=1e-6)


def test_cli_oracle_agreement(capsys):
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "disk.model"), "--oracle",
         "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["oracle"]["agree"] is True
    assert result["objective"] == pytest.approx(result["oracle"]["objective"],
                                                abs=1e-6)


def test_cli_oracle_agreement_reads_the_run_tolerance(capsys):
    # at --tol 0.1 OA stops at 13.000, within its gap of brute force's
    # 12.333, and the oracle judges it by that same gap
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "trimloss_toy.model"), "--tol", "0.1",
         "--oracle", "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["oracle"]["agree"] is True
    assert result["objective"] - result["oracle"]["objective"] > 0.5


def test_cli_oracle_disagreement_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "brute_force_solve",
                        lambda program: OaOutcome(INFEASIBLE))
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "disk.model"), "--oracle",
         "--no-timing"], capsys)
    assert code == 4
    result = json.loads(out)
    assert result["status"] == "optimal"
    assert result["oracle"] == {"status": "infeasible", "objective": None,
                                "agree": False}


def test_cli_solve_defaults_are_oa_configs(monkeypatch, capsys):
    configs = []

    def recording(program, config):
        configs.append(config)
        return oa_solve(program, config)

    monkeypatch.setattr(cli, "oa_solve", recording)
    code, _, _ = _run(["solve", str(INSTANCE_DIR / "disk.model"),
                       "--no-timing"], capsys)
    assert code == 0
    assert configs == [OaConfig()]


def test_cli_trace_has_one_record_per_iteration(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "empty_ball_naive_4.model"),
         "--trace", str(trace), "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == result["iterations"]
    assert records[0]["iteration"] == 1
    assert {"milp_status", "lower_bound", "upper_bound"} <= set(records[0])


def test_cli_trace_is_empty_for_a_run_that_ends_at_its_root(tmp_path,
                                                            capsys):
    # the disk model's root relaxation is integral, so no MILP is solved
    trace = tmp_path / "trace.jsonl"
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / "disk.model"),
         "--trace", str(trace), "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "optimal" and result["iterations"] == 0
    assert trace.read_text() == ""


def test_cli_trace_counts_the_leaves_each_milp_hands_on(tmp_path, capsys):
    # an optimal MILP hands on at least its incumbent's node; the ball's
    # last MILP is infeasible and hands on none
    trace = tmp_path / "trace.jsonl"
    code, _, _ = _run(
        ["solve", str(INSTANCE_DIR / "empty_ball_naive_4.model"),
         "--trace", str(trace), "--no-timing"], capsys)
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert "milp_root_pivots" not in records[0]
    assert [r["milp_leaves"] > 0 for r in records] == (
        [True] * (len(records) - 1) + [False])
    assert records[-1]["milp_status"] == "infeasible"


@pytest.mark.parametrize(
    "model", ["trimloss_toy.model", "empty_ball_naive_4.model"])
def test_cli_trace_bounds_are_in_model_units(model, tmp_path, capsys):
    # the toy's objective has a nonzero offset, so internal units differ;
    # the ball ends on an infeasible MILP, whose bounds the last record shows
    trace = tmp_path / "trace.jsonl"
    code, out, _ = _run(
        ["solve", str(INSTANCE_DIR / model),
         "--trace", str(trace), "--no-timing"], capsys)
    assert code == 0
    result = json.loads(out)
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["lower_bound"] == result["lower_bound"]
    assert last["upper_bound"] == result["upper_bound"]
    assert last["upper_bound"] == result["objective"]


def test_cli_rejects_malformed_input(tmp_path, capsys):
    garbage = tmp_path / "garbage.model"
    garbage.write_text("this is not a model\n")
    code, _, err = _run(["solve", str(garbage)], capsys)
    assert code == 2
    assert "unknown section 'this is not a model'" in err
    code, _, _ = _run(["solve", str(tmp_path / "missing.model")], capsys)
    assert code == 2


def test_cli_sniffs_the_format_past_leading_comments(tmp_path, capsys):
    doc = tmp_path / "commented.model"
    doc.write_text("; the disk model\n\n"
                   + (INSTANCE_DIR / "disk.model").read_text())
    argv = ["solve", "--no-timing"]
    code, commented, _ = _run(argv + [str(doc)], capsys)
    assert code == 0
    _, direct, _ = _run(argv + [str(INSTANCE_DIR / "disk.model")], capsys)
    assert commented == direct


def test_cli_solves_an_instance_whose_sections_come_in_any_order(
        tmp_path, capsys):
    text = write_conic(emit_conic(parse_model(
        (INSTANCE_DIR / "disk.model").read_text()))[0])
    sections = text.strip().split("\n\n")
    assert sections[0] == "VER\n1"
    original, reordered = tmp_path / "disk.conic", tmp_path / "ver_last.conic"
    original.write_text(text)
    reordered.write_text("\n\n".join(sections[1:] + sections[:1]) + "\n")
    argv = ["solve", "--no-timing"]
    code, out, _ = _run(argv + [str(reordered)], capsys)
    assert code == 0
    assert out == _run(argv + [str(original)], capsys)[1]


def test_cli_rejects_an_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.model"
    empty.write_text("")
    code, out, err = _run(["solve", str(empty)], capsys)
    assert code == 2 and not out
    assert "file is empty" in err


def test_cli_check_rejects_a_non_finite_exponent(tmp_path, capsys):
    doc = tmp_path / "pow.model"
    doc.write_text("(var x -1 1) (min (pow inf x))\n")
    code, out, err = _run(["check", str(doc)], capsys)
    assert code == 2 and not out
    assert "needs a numeric parameter >= 1" in err


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("text", ["(var x 0 1) (min x) (le x inf)",
                                  "(var x 0 1) (min (mul inf x))"])
def test_cli_rejects_a_non_finite_number_in_an_expression(
        tmp_path, capsys, command, text):
    doc = tmp_path / "inf.model"
    doc.write_text(text + "\n")
    code, out, err = _run([command, str(doc)], capsys)
    assert code == 2 and not out
    assert "expected a finite number, found 'inf'" in err


def test_cli_rejects_a_solve_setting_out_of_range(capsys):
    code, out, err = _run(
        ["solve", str(INSTANCE_DIR / "disk.model"), "--tol", "nan"], capsys)
    assert code == 2 and not out
    assert "tol" in err


def test_cli_checks_and_compiles_a_deeply_nested_model(tmp_path, capsys):
    path = tmp_path / "deep.model"
    path.write_text(_running_max_document(600))
    code, out, _ = _run(["check", str(path)], capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    out_path = tmp_path / "deep.conic"
    code, _, _ = _run(["compile", str(path), "-o", str(out_path)], capsys)
    assert code == 0
    # two bound columns per variable and one block of two per max
    program = read_conic(out_path.read_text())
    assert len(program.cones.factors) == 2 * 600 + 599


def _refuse_constant(token):
    raise ValueError("%s is not a JSON number" % token)


def _assert_strict_json(text):
    # a numpy scalar would already have made json.dumps raise, and plain
    # json.loads accepts NaN and Infinity, which strict JSON does not
    for line in text.splitlines():
        json.loads(line, parse_constant=_refuse_constant)


def _assert_strict_run(argv, code, capsys, trace=None):
    got, out, _ = _run(argv, capsys)
    assert got == code, argv
    _assert_strict_json(out)
    if trace is not None:
        _assert_strict_json(trace.read_text())


@pytest.mark.parametrize("model", sorted(
    path.name for path in INSTANCE_DIR.glob("*.model")))
def test_cli_prints_strict_json_for_every_shipped_model(model, tmp_path,
                                                        capsys):
    path, compiled = str(INSTANCE_DIR / model), tmp_path / "compiled.conic"
    trace = tmp_path / "trace.jsonl"
    _assert_strict_run(["check", path], 0, capsys)
    _assert_strict_run(["compile", path, "-o", str(compiled)], 0, capsys)
    _assert_strict_run(["solve", path, "--no-timing", "--oracle",
                        "--trace", str(trace)], 0, capsys, trace)
    _assert_strict_run(["solve", str(compiled), "--no-timing",
                        "--trace", str(trace)], 0, capsys, trace)


def test_cli_prints_strict_json_on_every_exit(tmp_path, capsys):
    # unbounded and infinite values, timed runs cut short, a failed check,
    # an assumption failure, oracle disagreements and each input error
    trace = tmp_path / "trace.jsonl"
    duality = INSTANCE_DIR / "rsoc_duality_failure.conic"
    free = tmp_path / "free.model"
    free.write_text("(var x)\n(min x)\n")
    ball = str(INSTANCE_DIR / "empty_ball_naive_4.model")
    for argv, code in [([str(duality), "--no-timing", "--oracle"], 4),
                       ([str(free), "--no-timing", "--oracle"], 4),
                       ([ball, "--time-limit", "0"], 0),
                       ([ball, "--max-iters", "3"], 0)]:
        _assert_strict_run(["solve", *argv, "--trace", str(trace)], code,
                           capsys, trace)
    _assert_strict_run(["solve", str(duality), "--no-timing"], 3, capsys)
    nonconvex = tmp_path / "nonconvex.model"
    nonconvex.write_text("(var x 1 2) (min x) (le (log x) 0)\n")
    _assert_strict_run(["check", str(nonconvex)], 1, capsys)
    bad = tmp_path / "bad.model"
    for text in ["(var x -1 1) (min (pow inf x))",
                 "(var x 0 1) (min x) (le x inf)",
                 "(var x 0 1) (min (mul inf x))"]:
        bad.write_text(text + "\n")
        for command in ("check", "solve"):
            _assert_strict_run([command, str(bad)], 2, capsys)
    nan = tmp_path / "nan.conic"
    nan.write_text(duality.read_text().replace("\nAZ\n1\n0 0 1\n",
                                               "\nAZ\n1\n0 0 nan\n"))
    assert "0 0 nan" in nan.read_text()
    for argv in (["solve", str(nan)],
                 ["solve", str(INSTANCE_DIR / "disk.model"), "--tol", "-1"],
                 ["solve", str(tmp_path / "missing.model")]):
        _assert_strict_run(argv, 2, capsys)


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "miconic", "check",
         str(INSTANCE_DIR / "disk.model")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True

"""Command-line behavior: output, exit codes, golden files."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from poissonore.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "--delta", "x=2*y,y=y^2+x", "z^2", "x*z")
    assert code == 0
    assert out.strip() == "4*y*z^2"


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", "--delta", "x=1", "--json", "z", "x")
    assert code == 0
    assert json.loads(out) == {"bracket": "1"}


def test_jacobi_failure_exit_code(capsys):
    code, out, _ = run(capsys, "jacobi", "--triple", "f=y,g=z,h=x")
    assert code == 1
    assert out.strip() == "residual: -x - y - z"


def test_jacobi_success(capsys):
    code, out, _ = run(capsys, "jacobi", "--triple", "f=x,g=y,h=z")
    assert code == 0
    assert "jacobi holds" in out


def test_jacobi_delta_structure(capsys):
    code, out, _ = run(capsys, "jacobi", "--delta", "x=2*y,y=y^2+x")
    assert code == 0


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "x*z", "y*z")
    assert code == 0
    assert "common: z" in out
    code, _, err = run(capsys, "decompose", "x", "z")
    assert code == 1
    assert "not a bracket pair" in err


def test_ham(capsys):
    code, out, _ = run(capsys, "ham", "--delta", "x=2*y,y=y^2+x", "z")
    assert code == 0
    assert "x -> 2*y" in out


def test_ore_mul_and_commutator(capsys):
    code, out, _ = run(capsys, "ore-mul", "--delta", "x=1", "z", "x")
    assert code == 0 and out.strip() == "x*z + 1"
    code, out, _ = run(capsys, "commutator", "--delta", "x=1", "z", "x")
    assert code == 0 and out.strip() == "1"


def test_semiclassical(capsys):
    code, out, _ = run(capsys, "semiclassical", "--delta", "x=1", "z^2", "x^2")
    assert code == 0 and out.strip() == "4*x*z"


@pytest.mark.parametrize("dmax", ["6", "7"])
def test_darboux_new_at_high_degree(capsys, dmax):
    # the registry's `new` entry has no stable curves; at dmax 6 one stratum
    # needs the QQ(i) roots of a degree-7 polynomial whose coefficients,
    # cleared of denominators, reach norm 5*10^8
    code, out, err = run(capsys, "darboux", "--delta", "x=y,y=x+x^2*y", "--dmax", dmax)
    assert (code, out, err) == (0, "none\n", "")


def test_darboux(capsys):
    code, out, _ = run(capsys, "darboux", "--delta", "x=2*y,y=y^2+x", "--dmax", "2")
    assert code == 0
    assert "q = y^2 + x + 1" in out
    code, _, err = run(capsys, "darboux", "--delta", "x=2*y,y=-2*x", "--dmax", "2")
    assert code == 1
    assert "infinite solution family" in err


def test_shamsuddin(capsys):
    code, out, _ = run(capsys, "shamsuddin", "--a", "3*x", "--b", "1")
    assert code == 0 and out.strip() == "simple"
    code, out, _ = run(capsys, "shamsuddin", "--a", "x", "--b", "0")
    assert code == 1 and out.strip() == "hypothesis fails: r = 0"
    code, out, _ = run(capsys, "shamsuddin", "--a", "0", "--b", "x")
    assert code == 1 and out.strip() == "hypothesis fails: r = 1/2*x^2"


def test_core(capsys):
    code, out, _ = run(
        capsys, "core", "--delta", "x=2*y,y=y^2+x", "--ideal", "y^2+x+1"
    )
    assert code == 0
    assert "exact after 1 step(s): (y^2 + x + 1)" in out


def test_singular(capsys):
    code, out, _ = run(capsys, "singular", "--delta", "x=2*y,y=y^2+x")
    assert code == 0
    assert "point: x = 0, y = 0" in out
    code, out, _ = run(capsys, "singular", "--delta", "x=x*y,y=0")
    assert code == 1
    assert "unresolved" in out


def test_image_solve(capsys):
    code, out, _ = run(
        capsys, "image-solve", "--delta", "x=y^3,y=1-x*y", "--dmax", "3", "1"
    )
    assert code == 1 and out.strip() == "none"
    code, out, _ = run(capsys, "image-solve", "--delta", "x=1", "--dmax", "2", "1")
    assert code == 0 and out.strip() == "x"


def test_classify_and_gamma(capsys):
    code, out, _ = run(capsys, "classify", "--delta", "x=2*y,y=y^2+x", "--dmax", "2")
    assert code == 0
    assert "side: ore" in out
    code, out, _ = run(capsys, "classify", "--exact", "x^2+y^2")
    assert code == 0
    assert "side: poisson" in out
    code, out, _ = run(capsys, "gamma", "--delta", "x=2*y,y=y^2+x", "--dmax", "2")
    assert code == 0
    assert "side: poisson" in out and "transport-check" in out


def test_example_list_and_lookup(capsys):
    code, out, _ = run(capsys, "example", "--list")
    assert code == 0
    assert "gwj:" in out
    code, _, err = run(capsys, "example", "no-such-example")
    assert code == 2
    assert "unknown example" in err
    code, _, err = run(capsys, "example")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "bracket", "--delta", "x=1", "x+", "x")
    assert code == 2
    assert "parse error" in err
    code, _, err = run(capsys, "bracket", "--delta", "x=", "x", "x")
    assert code == 2


def test_repeated_assignment_is_a_parse_error(capsys):
    code, out, err = run(capsys, "bracket", "--delta", "x=1,x=y,y=0", "x*z", "z")
    assert (code, out) == (2, "")
    assert "parse error" in err and "'x'" in err
    code, out, err = run(capsys, "jacobi", "--triple", "f=x,g=y,h=0,f=z")
    assert (code, out) == (2, "")
    assert "parse error" in err and "'f'" in err


def test_unreadable_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "bracket", "--delta", "x=1", "--file", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.txt" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--delta", "x=1", "--dmax", "-2"],
        ["darboux", "--delta", "x=1", "--dmax", "-1"],
        ["image-solve", "--delta", "x=1", "--dmax", "-1", "1"],
        ["core", "--delta", "x=1", "--ideal", "x", "--max-iter", "-1"],
    ],
)
def test_negative_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: negative")


@pytest.mark.parametrize(
    "argv",
    [
        ["darboux", "--delta", "1=2"],
        ["darboux", "--delta", "x y=1"],
        ["darboux", "--delta", "=1"],
        ["darboux", "--delta", "i=x,x=1"],
        ["bracket", "--triple", "f=x,g=y,h=0,k=1", "x", "y"],
    ],
)
def test_assignment_names_must_be_variables(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["core", "--delta", "t=x,x=1", "--ideal", "x"], "t"),
        (["core", "--delta", "x__out=x,x=1", "--ideal", "x"], "x__out"),
        (["classify", "--delta", "u0=1,x=u0"], "u0"),
    ],
)
def test_variables_named_like_auxiliaries(capsys, argv, name):
    # the same derivation with y in place of the name gives the same answer
    def as_y(text):
        return re.sub(rf"\b{re.escape(name)}\b", "y", text)

    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, as_y(out)) == run(capsys, *map(as_y, argv))[:2]


@pytest.mark.parametrize("command", ["classify", "gamma"])
def test_dmax_beside_exact_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--exact", "x^2+y^2", "--dmax", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--dmax" in err and "--exact" in err
    # without --dmax the exact classification runs, and --delta keeps its default bound
    assert run(capsys, command, "--exact", "x^2+y^2")[0] == 0
    default = run(capsys, command, "--delta", "x=2*y,y=y^2+x")
    assert default == run(capsys, command, "--delta", "x=2*y,y=y^2+x", "--dmax", "2")
    assert default[0] == 0 and "degree bound: 2" in default[1]


def test_spectrum_names_are_reserved(capsys):
    code, out, err = run(capsys, "classify", "--delta", "alpha=x,x=alpha", "--dmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "alpha" in err


@pytest.mark.parametrize("command", ["classify", "gamma"])
def test_three_base_variables_are_a_usage_error(capsys, command):
    # the stable prime (x, y) has height two: neither principal nor maximal
    code, out, err = run(capsys, command, "--delta", "x=x,y=2*y,w=1", "--dmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "(x, y, w)" in err
    # one base variable still classifies
    assert run(capsys, command, "--delta", "x=x^2+1", "--dmax", "1")[0] == 0


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["darboux"], "the following arguments are required: --delta"),
        (["core", "--ideal", "x"], "the following arguments are required: --delta"),
        (["image-solve", "1"], "the following arguments are required: --delta"),
        (["ore-mul", "z", "x"], "the following arguments are required: --delta"),
        (["commutator", "z", "x"], "the following arguments are required: --delta"),
        (["semiclassical", "z", "x"], "the following arguments are required: --delta"),
        (["classify"], "one of the arguments --delta --exact is required"),
        (["gamma"], "one of the arguments --delta --exact is required"),
        (["jacobi"], "one of the arguments --delta --triple is required"),
    ],
)
def test_missing_structure_is_a_usage_error(capsys, argv, message):
    code, out, err = usage_error(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--delta", "x=1", "--triple", "f=x,g=y,h=z", "x", "y"],
        ["jacobi", "--delta", "x=1", "--triple", "f=x,g=y,h=z"],
        ["ham", "--delta", "x=1", "--triple", "f=x,g=y,h=z", "x"],
        ["singular", "--delta", "x=1", "--triple", "f=x,g=y,h=z"],
        ["classify", "--delta", "x=1", "--exact", "x^2+y^2"],
        ["gamma", "--delta", "x=1", "--exact", "x^2+y^2"],
    ],
)
def test_conflicting_structures_are_a_usage_error(capsys, argv):
    code, out, err = usage_error(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "not allowed with argument --delta" in err


def test_file_input(capsys, tmp_path):
    src = tmp_path / "exprs.txt"
    src.write_text("z\nx\n")
    code, out, _ = run(capsys, "ore-mul", "--delta", "x=1", "--file", str(src))
    assert code == 0 and out.strip() == "x*z + 1"


def test_order_flag(capsys):
    code, out, _ = run(
        capsys, "core", "--delta", "x=2*y,y=y^2+x", "--ideal", "y^2+x+1", "--order", "lex"
    )
    assert "(x + y^2 + 1)" in out
    code, out, _ = run(capsys, "core", "--delta", "x=2*y,y=y^2+x", "--ideal", "y^2+x+1")
    assert "(y^2 + x + 1)" in out
    # classify and gamma print spectra in grevlex and take no --order
    for command in ("classify", "gamma"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--delta", "x=1", "--order", "lex"])
        assert exc.value.code == 2


@pytest.mark.parametrize("name", ["gwj", "new", "exact-circle", "bergman"])
def test_example_golden(capsys, name):
    code, out, _ = run(capsys, "example", name, "--json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
    payload = json.loads(out)
    assert payload["expected_reproduced"] is True
    spectrum = payload["spectrum"]
    assert set(spectrum) == {"side", "completeness", "entries"}
    for entry in spectrum["entries"]:
        assert set(entry) == {"kind", "generators", "parameters", "certificates"}
        assert entry["kind"] in ("type1", "type2")


def test_example_golden_repeatable(capsys):
    code1, out1, _ = run(capsys, "example", "gwj", "--json")
    code2, out2, _ = run(capsys, "example", "gwj", "--json")
    assert (code1, out1) == (code2, out2)

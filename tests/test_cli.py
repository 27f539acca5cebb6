"""CLI subcommands, output shapes, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trdeg
from trdeg import cli, coquand_lombardi, dependence
from trdeg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDep:
    def test_integer_pair_json(self, capsys):
        code, out, _ = run(capsys, "dep", "--elems", "12,18", "--order", "lex",
                           "--maxdeg", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["poly"] == [["1", [[2, 2]]], ["-27", [[1, 1]]]]
        assert data["trailing"] == [[2, 2]]
        assert data["verified"] is True

    def test_integer_pair_human(self, capsys):
        code, out, _ = run(capsys, "dep", "--elems", "12,18", "--order", "lex",
                           "--maxdeg", "3")
        assert code == 0
        assert out.splitlines()[0] == "dependent: f = x2^2 - 27*x1"

    def test_invalid_search_certificate_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(dependence, "check_certificate", lambda cert: "forced")
        code, out, err = run(capsys, "dep", "--elems", "12,18", "--order", "lex",
                             "--maxdeg", "3")
        assert code == 2
        assert out == ""
        assert err == "error: search produced an invalid certificate: forced\n"

    def test_no_relation_exit_code(self, capsys):
        code, out, _ = run(capsys, "dep", "--elems", "2", "--maxdeg", "6")
        assert code == 1
        assert out.strip() == "no relation up to degree 6"

    def test_mod6_example(self, capsys):
        code, out, _ = run(capsys, "dep", "--coeffs", "Zmod(6)", "--ring", "Zmod(6)",
                           "--elems", "2", "--order", "lex", "--maxdeg", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["poly"] == [["1", [[1, 1]]], ["5", [[1, 3]]]]

    def test_polynomial_algebra(self, capsys):
        code, out, _ = run(capsys, "dep", "--coeffs", "Poly(GF(7); t1,t2)",
                           "--ring", "Poly(GF(7); t1,t2)", "--elems", "t1,t1*t2",
                           "--order", "lex:x1>x2", "--maxdeg", "1")
        assert code == 0
        assert out.startswith("dependent:")

    def test_unsupported_config(self, capsys):
        code, _, err = run(capsys, "dep", "--coeffs", "Zmod(5)", "--ring", "ZZ",
                           "--elems", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_element_text(self, capsys):
        code, _, err = run(capsys, "dep", "--elems", "2,,3")
        assert code == 2
        assert "empty element" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dep", "--coeffs", "GF(7)", "--ring", "GF(7)", "--elems", "1/7"),
            ("dim", "--ring", "Quot(Poly(GF(5); x); [x - 1/5])"),
        ],
        ids=["dep", "dim"],
    )
    def test_denominator_zero_mod_p_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: denominator ") and "is zero in GF(" in err


class TestCl:
    def test_invalid_membership_witness_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(coquand_lombardi, "cl_verify", lambda cert: False)
        code, out, err = run(capsys, "cl", "--ring", "Zmod(12)", "--elems", "2",
                             "--maxexp", "5")
        assert code == 2
        assert out == ""
        assert err == "error: membership oracle returned a bad witness\n"

    def test_mod12(self, capsys):
        code, out, _ = run(capsys, "cl", "--ring", "Zmod(12)", "--elems", "2",
                           "--maxexp", "5")
        assert code == 0
        assert out.startswith("membership holds with exponents (2)")

    def test_not_found(self, capsys):
        code, out, _ = run(capsys, "cl", "--elems", "2", "--maxexp", "5")
        assert code == 1
        assert out.strip() == "no exponent vector up to 5 worked"

    def test_submonic_conversion_printed(self, capsys):
        code, out, _ = run(capsys, "cl", "--ring", "Zmod(12)", "--elems", "2",
                           "--maxexp", "5", "--submonic")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("membership holds")
        assert lines[1].startswith("dependent: f =")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cl", "--ring", "ZZ", "--elems", "12,18",
                           "--maxexp", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["exponents"] == [0, 2]
        assert data["coeffs"] == ["27", "0"]


class TestDimAndWeights:
    def test_dim(self, capsys):
        for text, expected in [("ZZ", "1"), ("Poly(QQ; x,y)", "2"),
                               ("Quot(Poly(QQ; x,y); [x*y])", "1")]:
            code, out, _ = run(capsys, "dim", "--ring", text)
            assert code == 0 and out.strip() == expected

    def test_weights(self, capsys):
        code, out, _ = run(capsys, "weights", "--order", "lex",
                           "--trailing", "0,2", "--above", "1,0")
        assert code == 0 and out.strip() == "3,1"

    def test_weights_precondition_error(self, capsys):
        code, _, err = run(capsys, "weights", "--order", "lex",
                           "--trailing", "2,0", "--above", "1,0")
        assert code == 2 and "precondition" in err


class TestMember:
    def test_member_with_cofactors(self, capsys):
        code, out, _ = run(capsys, "member", "--ring", "Poly(QQ; t1,t2)",
                           "--gens", "t1^2*t2^2,t1^3*t2", "--elem", "t1^3*t2")
        assert code == 0
        assert out.splitlines()[0] == "member"

    def test_not_member_prints_normal_form(self, capsys):
        code, out, _ = run(capsys, "member", "--ring", "Poly(QQ; t1,t2)",
                           "--gens", "t1^2*t2^2,t1^3*t2", "--elem", "t1^2*t2")
        assert code == 1
        assert out.strip() == "not a member; normal form t1^2*t2"

    def test_member_json(self, capsys):
        code, out, _ = run(capsys, "member", "--ring", "Poly(QQ; x,y)",
                           "--gens", "x-y", "--elem", "x^2-y^2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["member"] is True and len(data["cofactors"]) == 1

    def test_requires_field_base(self, capsys):
        code, _, err = run(capsys, "member", "--ring", "Poly(ZZ; x)",
                           "--gens", "x", "--elem", "x^2")
        assert code == 2 and "field" in err


class TestVerify:
    def test_roundtrip_via_file(self, capsys, tmp_path):
        searches = [
            ("--elems", "12,18", "--order", "lex"),
            # a field into a quotient over it
            ("--coeffs", "QQ", "--ring", "Quot(Poly(QQ; x,y); [x*y])", "--elems", "x+1,y"),
        ]
        for argv in searches:
            code, out, _ = run(capsys, "dep", *argv, "--maxdeg", "3", "--json")
            assert code == 0
            path = tmp_path / "cert.json"
            path.write_text(out)
            code, out, _ = run(capsys, "verify", "--cert", str(path))
            assert code == 0 and out.strip() == "verified"

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "dep", "--elems", "12,18", "--order", "lex",
                           "--maxdeg", "3", "--json")
        data = json.loads(out)
        data["poly"][1][0] = "-26"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert out.strip() == "verification failed: relation does not evaluate to zero"

    def test_valid_certificate_checked_once(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run(capsys, "dep", "--elems", "12,18", "--order", "lex",
                           "--maxdeg", "3", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out)
        calls = []
        original = dependence.check_certificate

        def counting(cert):
            calls.append(cert)
            return original(cert)

        # from_dict reaches it through dependence, the CLI through its own name
        monkeypatch.setattr(dependence, "check_certificate", counting)
        monkeypatch.setattr(cli, "check_certificate", counting)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and out.strip() == "verified"
        assert len(calls) == 1

    def test_cl_certificate_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cl", "--ring", "Zmod(12)", "--elems", "2",
                           "--maxexp", "5", "--json")
        path = tmp_path / "cl.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and out.strip() == "verified"

    def test_unrecognized_shape(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"foo": 1}')
        code, _, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and "unrecognized certificate shape" in err

    @pytest.mark.parametrize(
        "text, detail",
        [
            ('{"poly": [], "coeff_ring": "ZZ"}', "missing key 'ring'"),
            ('"poly"', "expected a JSON object, not str"),
            ('{"poly": 5, "ring": "ZZ", "coeff_ring": "ZZ", "ordering": "lex", "elements": []}',
             "'int' object is not iterable"),
        ],
    )
    def test_malformed_certificate(self, capsys, tmp_path, text, detail):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2 and out == ""
        assert err.strip() == f"error: malformed certificate: {detail}"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--cert", str(tmp_path / "nope.json"))
        assert code == 2 and err.startswith("error:")


class TestDepMatrix:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "depmatrix", "--elems", "2,3,4,5", "--size", "2",
                           "--order", "lex", "--maxdeg", "4")
        assert code == 0
        assert out.splitlines()[0] == (
            "6 tuples of size 2: 6 dependent, 0 without a relation up to degree 4, "
            "0 resource-exceeded"
        )

    def test_independent_candidates_listed(self, capsys):
        code, out, _ = run(capsys, "depmatrix", "--elems", "2", "--size", "1",
                           "--maxdeg", "6")
        assert code == 0
        assert "independent candidate: (2)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "depmatrix", "--elems", "2,4", "--size", "2",
                           "--maxdeg", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"]["dependent"] == 1


class TestExperiment:
    def test_csv_deterministic(self, capsys):
        argv = ["experiment", "--seed", "9", "--trials", "5", "--csv"]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        # timing column varies; everything else must not
        strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
        assert strip(out_a) == strip(out_b)
        assert out_a.splitlines()[0] == "trial,arity,verdict,cert_degree,millis"

    def test_canonical_output_identical(self, capsys):
        argv = ["experiment", "--seed", "9", "--trials", "5", "--canonical"]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b
        assert "millis" not in out_a

    @pytest.mark.parametrize(
        "coeffs, ring, digest",
        [
            ("QQ", "Poly(QQ; x)",
             "1c048236187ec70b7441574dc4b8f6ef0b834a3eacce310b78c86973d4b3c34a"),
            ("GF(7)", "Poly(GF(7); x)",
             "bc84479273ad6c0b580da9ae0215ea721de122924f28f540e64d8c066f50e42f"),
        ],
    )
    def test_field_certificates_pinned(self, capsys, coeffs, ring, digest):
        # The output is run_experiment(...).canonical_json() plus a newline.
        code, out, _ = run(capsys, "experiment", "--seed", "42", "--trials", "20",
                           "--coeffs", coeffs, "--ring", ring, "--canonical")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "experiment", "--seed", "1", "--trials", "3",
                           "--canonical", "--out", str(path))
        assert code == 0
        assert out.startswith(f"wrote {path}:")
        data = json.loads(path.read_text())
        assert data["spec"]["trials"] == 3


def run_python(*args):
    """Run the interpreter on args with the trdeg imported here on its path."""
    env = dict(os.environ)
    package_root = str(Path(trdeg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_python("-m", "trdeg.cli", "dim", "--ring", "ZZ")
        assert proc.returncode == 0 and proc.stdout.strip() == "1"

    def test_console_script(self):
        # Run the [project.scripts] target the way an installed console-script
        # wrapper does, so the test needs no `pip install` and no `trdeg` on PATH.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["trdeg"]
        module, func = target.split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'trdeg'; sys.exit({func}())")
        proc = run_python("-c", wrapper,
                          "dep", "--elems", "12,18", "--order", "lex", "--maxdeg", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "dependent: f = x2^2 - 27*x1"

    def test_usage_error_exit_code(self):
        proc = run_python("-m", "trdeg.cli", "dep")
        assert proc.returncode == 2

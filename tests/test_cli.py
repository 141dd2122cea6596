"""Command line interface: exit codes and payload shapes."""

import json
import os
import subprocess
import sys

import pytest

import ihall
from ihall.cli import main

SPLIT2 = {
    "vertices": ["1", "2"],
    "arrows": [["a1", "1", "2"], ["a2", "1", "2"]],
    "tau": {"1": "1", "2": "2"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_builtin(capsys):
    code, out, _ = run(capsys, "verify", "builtin:a2-split", "--q", "2")
    assert code == 0
    assert "9/9 relations hold" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "builtin:rank1-split", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["results"]) == 1
    assert payload["results"][0]["ok"] is True


def test_verify_single_parity(capsys):
    code, out, _ = run(
        capsys, "verify", "builtin:a2-split", "--parities", "0"
    )
    assert code == 0
    assert "7/7 relations hold" in out


def test_verify_json_quiver_file(tmp_path, capsys):
    spec = tmp_path / "split2.json"
    spec.write_text(json.dumps(SPLIT2))
    code, out, _ = run(capsys, "verify", str(spec), "--q", "2")
    assert code == 0
    assert "relations hold" in out


def test_product_text(capsys):
    code, out, _ = run(
        capsys, "product", "builtin:kronecker-r1", "simple:1", "simple:2"
    )
    assert code == 0
    assert out.strip() == (
        "(1*sqrt(2))[0,0#0]*K(1,0) + (1/2*sqrt(2))[1,1#0]"
        " + (1/2*sqrt(2))[1,1#2]"
    )


def test_product_json(capsys):
    code, out, _ = run(
        capsys,
        "product",
        "builtin:kronecker-r1",
        "simple:1",
        "simple:2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [t["class"] for t in payload["terms"]] == [
        "0,0#0",
        "1,1#0",
        "1,1#2",
    ]
    assert payload["terms"][0]["alpha"] == [1, 0]
    assert payload["terms"][0]["coeff"] == "1*sqrt(2)"


def test_product_class_key(capsys):
    code, out, _ = run(
        capsys, "product", "builtin:a2-split", "class:1,0#0", "k:1"
    )
    assert code == 0
    assert "K(1, 0)" in out or "K(1,0)" in out


def test_idp_command(capsys):
    code, out, _ = run(
        capsys,
        "idp",
        "builtin:rank1-split",
        "--vertex",
        "1",
        "--n",
        "2",
        "--parity",
        "0",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert len(payload["terms"]) == 2


def test_idp_missing_parity_is_input_error(capsys):
    code, _, err = run(
        capsys, "idp", "builtin:rank1-split", "--vertex", "1", "--n", "2"
    )
    assert code == 2
    assert "parity" in err


def test_identities_command(capsys):
    code, out, _ = run(
        capsys,
        "identities",
        "--pmax",
        "3",
        "--dmax",
        "3",
        "--amax",
        "2",
    )
    assert code == 0
    assert "identities hold" in out


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys, "enumerate", "builtin:a2-split", "--dim", "1,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 2
    assert all(r["eps_zero"] for r in payload["classes"])
    assert {r["name"] for r in payload["classes"]} == {"1,1#0", "1,1#1"}


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "enumerate",
        "builtin:a2-split",
        "--dim",
        "4,4",
        "--budget-dim",
        "6",
    )
    assert code == 3
    assert "budget" in err


def test_bad_element_key(capsys):
    code, _, err = run(
        capsys, "product", "builtin:a2-split", "simple:1", "bogus"
    )
    assert code == 2
    assert "unrecognized element key" in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "verify", "builtin:nope")
    assert code == 2
    assert "error" in err


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"vertices": 5},
        {"vertices": ["1", "2"], "arrows": [{"src": "1", "tgt": "2"}]},
        {"vertices": ["1", "2"], "arrows": [7]},
        {"vertices": ["1"], "tau": ["1"]},
        {"vertices": [{"a": 1}]},
        {"vertices": [None, "None"]},
    ],
)
def test_malformed_quiver_spec_is_input_error(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_enumerate_wrong_dimension_length_is_input_error(capsys):
    code, _, err = run(capsys, "enumerate", "builtin:a2-split", "--dim", "1")
    assert code == 2
    assert "2 vertices" in err


def test_idp_unknown_vertex_is_input_error(capsys):
    code, _, err = run(
        capsys, "idp", "builtin:rank1-split", "--vertex", "9", "--n", "1"
    )
    assert code == 2
    assert "unknown vertex '9'" in err


def test_product_bad_element_vertex_or_dimension_is_input_error(capsys):
    for key in ("simple:9", "k:9", "class:1#0", "class:1,-1#0"):
        code, _, err = run(capsys, "product", "builtin:a2-split", key, "simple:1")
        assert code == 2, key
        assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--pmax", "-1"),
        ("identities", "--dmax", "-1"),
        ("identities", "--amax", "-1"),
        ("enumerate", "builtin:a2-split", "--dim", "1,0", "--budget-dim", "-1"),
        ("enumerate", "builtin:a2-split", "--dim", "1,0", "--budget-space", "-1"),
    ],
)
def test_negative_range_is_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_import_loads_no_cache_modules():
    # hashlib and pickle serve only the disk cache, so importing the CLI
    # must not load them; `site` may have loaded them already
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = set(sys.modules); import ihall.cli; "
        "print(sorted({'hashlib', 'pickle'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_identities_loads_only_its_layers():
    # the package resolves its names lazily and each command imports its own
    # layers, so the q-identity suites never compile the module side
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import contextlib, io, sys
        import ihall, ihall.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = ihall.cli.main(["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"])
        module_side = ["ihall." + m for m in ("frep", "linalg", "ihall", "iquiver")]
        print(code, sorted(set(module_side) & set(sys.modules)))
        missing = [n for n in ihall.__all__ if getattr(ihall, n, None) is None]
        print(missing, sorted(set(module_side) - set(sys.modules)))
    """
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["0 []", "[] []"]


def test_unknown_package_attribute_is_attribute_error():
    with pytest.raises(AttributeError):
        ihall.no_such_name

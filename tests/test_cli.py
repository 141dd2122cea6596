"""Command line interface: exit codes and payload shapes."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import ihall
import ihall.cli
from ihall import linalg
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


def test_product_over_a_large_hom_space(capsys):
    # S_1^3 by S_1^3 on rank1-split at q = 5: Hom(x, tau* y) has 5^9 maps,
    # which the sum over images counts without walking them
    code, out, _ = run(
        capsys, "product", "builtin:rank1-split", "class:3#0", "class:3#0", "--q", "5", "--json"
    )
    assert code == 0
    assert out == """{
  "command": "product",
  "quiver": "builtin:rank1-split",
  "q": 5,
  "x": "class:3#0",
  "y": "class:3#0",
  "terms": [
    {
      "class": "0#0",
      "alpha": [
        3
      ],
      "coeff": "11904/25*sqrt(5)"
    },
    {
      "class": "2#0",
      "alpha": [
        2
      ],
      "coeff": "92256/625*sqrt(5)"
    },
    {
      "class": "4#0",
      "alpha": [
        1
      ],
      "coeff": "3844/3125*sqrt(5)"
    },
    {
      "class": "6#0",
      "alpha": [
        0
      ],
      "coeff": "1/3125*sqrt(5)"
    }
  ]
}
"""


def test_deep_dimension_vector_needs_no_deep_call_chain():
    # the classes below a new middle are classified bottom-up, so a total
    # dimension far past the recursion limit is no RecursionError (exit 1)
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import sys
        import ihall.cli
        sys.setrecursionlimit(150)
        sys.exit(ihall.cli.main(sys.argv[1:]))
    """
    argv = ["product", "builtin:rank1-split", "class:60#0", "k:1", "--budget-dim", "100"]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "(1)[60#0]*K(1)\n", "")


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


def test_idp_parity_at_a_moved_vertex_warns_in_one_line():
    # the warning reaches stderr as one plain line, not in Python's format
    # with the path and source line of the code that raised it; a run the
    # budget refuses prints its budget line alone
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cases = [
        (["--n", "2", "--parity", "0", "--json"], 0,
         "warning: parity has no effect at a vertex not fixed by the involution\n"),
        (["--n", "7", "--parity", "0"], 3,
         "budget exceeded: dimension vector (7, 0) has total 7 > budget 6\n"),
    ]
    for args, code, err in cases:
        argv = ["idp", "builtin:kronecker-r1", "--vertex", "1", *args]
        out = subprocess.run(
            [sys.executable, "-m", "ihall.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (out.returncode, out.stderr) == (code, err), argv
        if code == 0:
            assert json.loads(out.stdout)["parity"] == 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--pmax", "2", "--dmax", "2", "--amax", "2"),
        ("verify", "builtin:rank1-split"),
    ],
)
def test_elapsed_is_one_monotonic_reading(capsys, monkeypatch, argv):
    # the run is timed by perf_counter alone, read once at each end: a third
    # reading or a look at the wall clock (which can jump) fails the test
    for extra in ((), ("--json",)):
        readings = iter([100.0, 102.5])

        def wall_clock():
            raise AssertionError("read the wall clock")

        monkeypatch.setattr(
            ihall.cli, "time", SimpleNamespace(perf_counter=lambda: next(readings), time=wall_clock)
        )
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        if extra:
            assert json.loads(out)["elapsed_s"] == 2.5
        else:
            assert out.rstrip().endswith("hold (2.50s)")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "builtin:rank1-split", "--dim", "300", "--budget-dim", "1000"),
        ("enumerate", "builtin:a2-split", "--dim", "0,400", "--budget-dim", "1000"),
        ("enumerate", "builtin:a2-split", "--dim", "70,70", "--budget-dim", "1000"),
    ],
)
def test_huge_raw_space_exits_3(capsys, argv):
    # the refusal words a space of thousands of digits as a power of two
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "at least 2^" in err and len(err) < 200


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["verify", "builtin:rank1-split"], 0),
        (["verify", "builtin:a2-split"], 3),
        (["verify", "builtin:a3-quasisplit"], 3),
        (["verify", "builtin:kronecker-r1"], 3),
        # the eps loop at a fixed vertex of dimension 1 has one candidate, zero
        (["enumerate", "builtin:rank1-split", "--dim", "1"], 0),
    ],
)
def test_a_large_prime_q_runs_or_exits_3_without_a_primitive_root(capsys, monkeypatch, argv, exit_code):
    # q is tested by Miller-Rabin, and GL generators, whose primitive root
    # factors q - 1 by trial division, are built only at a vertex with a
    # candidate list of two or more matrices: at this q none passes the budget
    calls = []
    primitive_root = linalg.primitive_root
    monkeypatch.setattr(linalg, "primitive_root", lambda p: calls.append(p) or primitive_root(p))
    code, _, err = run(capsys, *argv, "--q", str(10 ** 13 + 37))
    assert (code, calls) == (exit_code, [])
    assert (code == 3) == err.startswith("budget exceeded:")


def test_q_past_the_prime_test_bound_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "builtin:a2-split", "--q", str(linalg.PRIME_TEST_BOUND))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(linalg.PRIME_TEST_BOUND) in err


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


def test_deeply_nested_spec_file_is_input_error(tmp_path, capsys):
    # json.load raises RecursionError past the recursion limit: bad input,
    # not a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err


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


def test_unknown_spec_keys_are_input_errors(tmp_path, capsys):
    # "tau_arrow" for "tau_arrows": the arrows are not swapped, and the
    # identity pairing once gave 36 classes at (2, 2) where the swap has 34
    spec = dict(SPLIT2, tau_arrow={"a1": "a2", "a2": "a1"})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "enumerate", str(path), "--dim", "2,2")
    assert (code, out) == (2, "")
    assert err.startswith("error: quiver spec has unknown key 'tau_arrow'")
    spec["tau_arrows"] = spec.pop("tau_arrow")
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "enumerate", str(path), "--dim", "2,2")
    assert code == 0 and out.endswith("\n34 classes\n")
    arrow = {"name": "a1", "src": "1", "tgt": "2", "weight": 1}
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [arrow]}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "unknown key 'weight'" in err


def test_enumerate_wrong_dimension_length_is_input_error(capsys):
    code, _, err = run(capsys, "enumerate", "builtin:a2-split", "--dim", "1")
    assert code == 2
    assert "2 vertices" in err
    # a malformed entry names the dimension vector, not Python's int()
    for dim in ("1,", "1,x", ""):
        code, _, err = run(capsys, "enumerate", "builtin:a2-split", "--dim", dim)
        assert code == 2, dim
        assert err == "error: dimension vector %r is not a comma separated list of integers\n" % dim


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
    # a malformed index names the key, a malformed entry the dimension vector
    for key, named in (("class:1,0#x", "class key 'class:1,0#x'"), ("class:1,0#0#1", "class key 'class:1,0#0#1'"),
                       ("class:1,#0", "dimension vector '1,'")):
        code, _, err = run(capsys, "product", "builtin:a2-split", key, "simple:1")
        assert code == 2, key
        assert err.startswith("error: %s" % named) and "invalid literal" not in err, key


@pytest.mark.parametrize(
    "argv",
    [
        ("identities", "--pmax", "-1"),
        ("identities", "--dmax", "-1"),
        ("identities", "--amax", "-1"),
        ("enumerate", "builtin:a2-split", "--dim", "1,0", "--budget-dim", "-1"),
        ("enumerate", "builtin:a2-split", "--dim", "1,0", "--budget-space", "-1"),
        # argparse names --n, before the parity or the ring sees a negative n
        ("idp", "builtin:rank1-split", "--vertex", "1", "--n", "-1", "--parity", "0"),
        ("idp", "builtin:rank1-split", "--vertex", "1", "--n", "-1"),
    ],
)
def test_negative_range_is_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be nonnegative" in err
    assert "argument %s:" % argv[argv.index("-1") - 1] in err


@pytest.mark.parametrize(
    "value",
    ["5", "7,-3", "0,0", "1,1,0", "x", "", "0,", "+1"],
)
def test_bad_parities_is_input_error(capsys, value):
    # a nonempty comma list of distinct parities 0 and 1, else argparse
    # names --parities before any relation runs
    with pytest.raises(SystemExit) as exc:
        main(["verify", "builtin:a2-split", "--parities", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --parities:" in out.err and repr(value) in out.err


def _verify_payload(capsys, *argv):
    code, out, err = run(capsys, "verify", "builtin:a2-split", "--q", "3", "--json", *argv)
    out = json.loads(out)
    out.pop("elapsed_s")
    return code, out, err


@pytest.mark.parametrize("under_a_file", [False, True])
def test_cache_dir_that_is_no_directory_is_input_error(tmp_path, capsys, monkeypatch, under_a_file):
    # no table is read from or written to disk, so IHALL_CACHE_DIR naming a
    # file, or a path below one, is no longer an input error: the run is
    # the same as without the variable
    monkeypatch.delenv("IHALL_CACHE_DIR", raising=False)
    want = _verify_payload(capsys)
    assert want[0] == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = str(blocker / "cache" if under_a_file else blocker)
    monkeypatch.setenv("IHALL_CACHE_DIR", path)
    assert _verify_payload(capsys) == want


def test_import_loads_no_cache_modules(tmp_path):
    # hashlib and pickle are not used at all, so neither importing the CLI
    # nor a verify run may load them (`site` may have loaded them already);
    # every run classifies its tables afresh and an IHALL_CACHE_DIR stays
    # empty
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
    code = """if True:
        import contextlib, io, sys
        before = set(sys.modules)
        import ihall.cli, ihall.frep
        table = ihall.frep.ModuleTable
        called = []
        def counted(*args, orig=table._classify):
            called.append(args[1])
            return orig(*args)
        table._classify = counted
        with contextlib.redirect_stdout(io.StringIO()):
            code = ihall.cli.main(["verify", "builtin:a2-split", "--q", "3"])
        print(code, bool(called), sorted({"hashlib", "pickle"} & (set(sys.modules) - before)))
    """
    cache = tmp_path / "cache"
    cache.mkdir()
    env["IHALL_CACHE_DIR"] = str(cache)
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0 True []"
    assert list(cache.iterdir()) == []


def _loaded_ihall_modules(argv, as_main=False):
    """(exit code, sorted ihall modules loaded) of one command run in a fresh
    interpreter that imports only ihall.cli first; with as_main, that runs
    cli as __main__, as `python -m ihall.cli` does."""
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if as_main:
        load, call = "import runpy", "runpy.run_module('ihall.cli', run_name='__main__', alter_sys=True)"
    else:
        load, call = "import ihall.cli", "ihall.cli.main(sys.argv[1:])"
    code = """if True:
        import contextlib, io, json, sys
        %s
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = %s
            except SystemExit as exc:
                code = exc.code
        print(code, json.dumps(sorted(m for m in sys.modules if m == "ihall" or m.startswith("ihall."))))
    """ % (load, call)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, mods = out.stdout.split(" ", 1)
    return int(code), json.loads(mods)


# The ihall modules each plain command loads past the package itself, as
# README's table lists them. Each command runs as `python -m ihall.cli`
# runs it, so no module may import ihall.cli: that would compile cli a
# second time beside __main__.
_HALL = ["ihall.frep", "ihall.ihall", "ihall.iquiver", "ihall.linalg", "ihall.qsqrt"]
_VERIFY = _HALL + ["ihall.idp", "ihall.iqg"]


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["verify", "builtin:a3-quasisplit", "--q", "3"], _VERIFY),
        (["verify", "SPEC", "--q", "2", "--parities", "0,1", "--json"], _VERIFY),
        (["product", "builtin:kronecker-r1", "simple:1", "simple:2"], _HALL + ["ihall.elements"]),
        (["idp", "builtin:rank1-split", "--vertex", "1", "--n", "3", "--parity", "0"],
         _HALL + ["ihall.elements", "ihall.idp"]),
        (["enumerate", "builtin:a2-split", "--dim", "2,1"], _HALL + ["ihall.elements", "ihall.lambda_i"]),
        (["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"], ["ihall.qseries", "ihall.ring"]),
    ],
)
def test_each_command_loads_its_row_of_the_module_table(tmp_path, argv, loads):
    # verify, idp and product load no Laurent polynomials (ring), and verify
    # and identities no element commands (elements)
    if "SPEC" in argv:
        spec = tmp_path / "split2.json"
        spec.write_text(json.dumps(SPLIT2))
        argv = [str(spec) if a == "SPEC" else a for a in argv]
    code, mods = _loaded_ihall_modules(argv, as_main=True)
    assert code == 0
    assert mods == sorted(["ihall"] + loads)


def test_identities_loads_only_its_layers():
    # the package resolves its names lazily and each command imports its own
    # layers, so the q-identity suites compile neither the module side nor
    # the relation suite (iqg) nor QSqrt; the package still resolves every
    # public name
    code, mods = _loaded_ihall_modules(["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"])
    assert code == 0
    assert mods == ["ihall", "ihall.cli", "ihall.qseries", "ihall.ring"]
    assert [n for n in ihall.__all__ if getattr(ihall, n, None) is None] == []


def test_identities_past_its_ceiling_exits_3_at_once():
    # the ceiling is checked before any suite runs, so the run loads nothing
    # past qseries and ends at once, naming the bound
    from ihall.qseries import CEILING

    assert list(CEILING) == ["pmax", "dmax", "amax"]
    code, mods = _loaded_ihall_modules(["identities", "--pmax", "100000000", "--dmax", "0", "--amax", "0"])
    assert (code, mods) == (3, ["ihall", "ihall.cli", "ihall.qseries", "ihall.ring"])
    for bound, ceiling in CEILING.items():
        argv = ["identities", "--pmax", "0", "--dmax", "0", "--amax", "0"]
        argv[argv.index("--" + bound) + 1] = str(ceiling + 1)
        out = io.StringIO()
        with contextlib.redirect_stderr(out):
            assert main(argv) == 3
        assert out.getvalue() == "budget exceeded: --%s %d is past its ceiling %d\n" % (bound, ceiling + 1, ceiling)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "builtin:kronecker-r1", "--q", "2"],
        ["idp", "builtin:kronecker-r1", "--vertex", "1", "--n", "2"],
        ["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"],
        ["product", "builtin:kronecker-r1", "simple:1", "k:2"],
        # the kQ classes at (1, 1) are #0 to #2
        ["product", "builtin:kronecker-r1", "class:1,1#2", "class:1,0#0"],
    ],
)
def test_kq_commands_load_no_lambda_module(argv):
    # the product engine runs on the kQ table alone
    code, mods = _loaded_ihall_modules(argv)
    assert code == 0 and "ihall.lambda_i" not in mods


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "builtin:a2-split", "--dim", "1,1"],
        ["product", "builtin:kronecker-r1", "class:1,1#3", "simple:2"],
    ],
)
def test_lambda_classes_load_the_lambda_module(argv):
    code, mods = _loaded_ihall_modules(argv)
    assert code == 0 and "ihall.lambda_i" in mods


def test_an_arrow_may_carry_the_name_eps_1(tmp_path, capsys):
    # no arrow of a spec can take the name of an eps arrow of the doubled
    # quiver, so eps_1 is an arrow name like a1: same classes, same products
    outs = {}
    for name in ("eps_1", "a1"):
        spec = tmp_path / ("%s.json" % name)
        spec.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [[name, "1", "2"]]}))
        outs[name] = []
        for argv in (["enumerate", str(spec), "--dim", "2,1"], ["product", str(spec), "class:2,1#3", "simple:1"]):
            code, out, err = run(capsys, *argv, "--json")
            assert (code, err) == (0, ""), (argv, err)
            payload = json.loads(out)
            assert payload.pop("quiver") == str(spec)
            outs[name].append(payload)
    assert outs["eps_1"] == outs["a1"]


def test_qsqrt_loads_no_laurent_ring():
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ihall.qsqrt; print(sorted(m for m in sys.modules if m.startswith('ihall')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['ihall', 'ihall.qsqrt']"


def test_verify_never_loads_the_q_series_suites():
    code, mods = _loaded_ihall_modules(["verify", "builtin:a3-quasisplit", "--q", "2"])
    assert code == 0
    assert "ihall.iqg" in mods and "ihall.qsqrt" in mods
    assert "ihall.qseries" not in mods and "ihall.oracle" not in mods


def test_moved_names_resolve_at_their_old_homes():
    # iqg and ring forward the names that moved out of them to the moved
    # objects themselves, and nothing else
    from ihall import iqg, qseries, qsqrt, ring

    for name in iqg._QSERIES:
        assert getattr(iqg, name) is getattr(qseries, name), name
    assert ring.QSqrt is qsqrt.QSqrt
    for module, name in ((iqg, "comb2"), (iqg, "_t_pair"), (ring, "qbinom"), (ring, "qdfact"),
                         (ring, "_qsqrt"), (ring, "no_such_name")):
        with pytest.raises(AttributeError):
            getattr(module, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "builtin:a2-split", "--q", "3"],
        ["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"],
    ],
)
def test_commands_leave_the_oracles_out(argv):
    # the reference routes live in ihall.oracle, which no command imports;
    # the package still resolves their public names there
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import contextlib, io, sys
        import ihall, ihall.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = ihall.cli.main(sys.argv[1:])
        print(code, "ihall.oracle" in sys.modules)
        missing = [n for n in ihall.__all__ if getattr(ihall, n, None) is None]
        homed = [n for n in ihall.__all__ if getattr(getattr(ihall, n), "__module__", None) == "ihall.oracle"]
        print(missing, homed)
    """
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    homed = ["idp_closed", "idp_product", "idp_recursive",
             "oracle_kronecker_single", "oracle_sss"]
    assert out.stdout.splitlines() == ["0 False", "[] %s" % homed]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "builtin:a2-split", "--q", "3"],
        ["product", "builtin:a2-split", "simple:1", "simple:2", "--q", "3"],
        ["idp", "builtin:rank1-split", "--vertex", "1", "--n", "3", "--parity", "1"],
        ["enumerate", "builtin:a2-split", "--dim", "1,1"],
        ["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"],
    ],
)
def test_commands_load_no_fractions(argv):
    # every scalar is a LaurentPoly or a QSqrt over ints, so no command
    # loads fractions (nor decimal and numbers, which it imports)
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import contextlib, io, sys
        before = set(sys.modules)
        import ihall.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = ihall.cli.main(sys.argv[1:])
        print(code, sorted({"fractions", "decimal", "numbers"} & (set(sys.modules) - before)))
    """
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"


def test_no_module_loads_fractions():
    # the oracles too take their scalars as ints, LaurentPoly and QSqrt
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import importlib, pkgutil, sys
        import ihall
        names = sorted(m.name for m in pkgutil.iter_modules(ihall.__path__, "ihall."))
        for name in names:
            importlib.import_module(name)
        print(len(names), "ihall.oracle" in sys.modules, "fractions" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    n, oracle, fractions = out.stdout.split()
    assert int(n) >= 13 and (oracle, fractions) == ("True", "False")


def test_no_module_reads_the_environment():
    # no hidden knob: every input of a run is on its command line, so no
    # module names os.environ, os.environb, os.getenv or os.getenvb, in
    # any spelling of the import
    src = os.path.dirname(ihall.__file__)
    names = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert len(names) >= 14
    knobs = {"environ", "environb", "getenv", "getenvb"}
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert not knobs & used, (name, sorted(knobs & used))


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["verify", "builtin:a2-split", "--q", "3", "--json"], True),
        (["product", "builtin:a2-split", "simple:1", "simple:2", "--q", "3"], True),
        (["idp", "builtin:rank1-split", "--vertex", "1", "--n", "3", "--parity", "1"], True),
        (["enumerate", "builtin:a2-split", "--dim", "1,1"], True),
        (["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"], True),
        (["verify", "--help"], False),
        (["verify", "builtin:a2-split", "--no-such-option"], False),
    ],
)
def test_plain_command_lines_load_no_argparse(argv, plain):
    # a plain command line is read without argparse (and the gettext and
    # locale it loads); help and usage errors still come from argparse
    src = os.path.dirname(os.path.dirname(ihall.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import sys
        before = set(sys.modules)
        import contextlib, io, ihall.cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = ihall.cli.main(sys.argv[1:])
            except SystemExit as exc:
                code = exc.code
        print(code, sorted({"argparse", "gettext", "locale", "__future__"} & (set(sys.modules) - before)))
    """
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, loaded = out.stdout.split(" ", 1)
    if plain:
        assert (code, loaded.strip()) == ("0", "[]")
    else:
        assert code == ("0" if "--help" in argv else "2") and "'argparse'" in loaded


def _parser_exit(parser, argv):
    """(exit code, stdout, stderr) of a parse that must end in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--help"],
        ["verify"],
        ["identities", "--pmax", "-1"],
        ["identities", "--pmax", "2", "surplus"],
        ["product", "builtin:a2-split", "simple:1"],
    ],
)
def test_usage_errors_match_the_full_parser(argv):
    # a usage error or help text of main is byte for byte the full parser's
    full = _parser_exit(ihall.cli.build_parser(), argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, out.getvalue(), err.getvalue()) == full
    assert full[0] == (0 if argv == ["--help"] else 2)


@pytest.mark.parametrize(
    "argv",
    [
        # the job shapes of perfbench/run.py and perfbench/digests.py
        ["verify", "/work/spec-a2-split.json", "--q", "2", "--parities", "0,1", "--json"],
        ["verify", "/work/spec-split-a2.json", "--q", "3", "--parities", "0,1", "--json"],
        ["identities", "--pmax", "10", "--dmax", "8", "--amax", "7", "--json"],
        ["enumerate", "builtin:a3-quasisplit", "--q", "3", "--dim", "1,0,1", "--json"],
    ],
)
def test_benchmark_command_lines_skip_argparse(argv):
    # an option change that sent these through argparse would add its
    # import to every benchmark process
    assert ihall.cli._read(argv) is not None


def test_json_payload_is_one_write(monkeypatch):
    # each write is a system call when stdout is unbuffered
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["verify", "builtin:a2-split", "--json"]) == 0
    assert len(writes) == 1 and writes[0].endswith("}\n")
    payload = json.loads(writes[0])
    assert writes[0] == json.dumps(payload, indent=2) + "\n"


def test_unknown_package_attribute_is_attribute_error():
    with pytest.raises(AttributeError):
        ihall.no_such_name


# ---------- fuzzing the command line ----------

_IDS = st.sampled_from(["1", "2", "3", "eps_1", 1, 7, "", True, None, 2.5, ["1"]])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_ARROW = st.one_of(
    st.tuples(_IDS, _IDS, _IDS).map(list),
    st.tuples(_IDS, _IDS).map(list),
    st.fixed_dictionaries({"name": _IDS, "src": _IDS, "tgt": _IDS}),
    _JSON,
)
_SPECS = st.one_of(
    st.fixed_dictionaries(
        {"vertices": st.lists(_IDS, max_size=3), "arrows": st.lists(_ARROW, max_size=3)},
        optional={
            "tau": st.dictionaries(_IDS.filter(lambda x: isinstance(x, (str, int))), _IDS, max_size=3),
            "tau_arrows": _JSON,
        },
    ),
    _JSON,
)
_QUIVERS = st.one_of(
    st.sampled_from(["builtin:" + n for n in ihall.BUILTIN_NAMES] + ["builtin:nope", "builtin:"]),
    _SPECS.map(json.dumps),
    st.sampled_from(["{", "[1, 2", "", "null", "\x00"]),
)
_DIMS = st.one_of(
    st.lists(st.integers(-1, 3), max_size=4).map(lambda d: ",".join(map(str, d))),
    st.text(alphabet="0123,-#x ", max_size=5),
)
_KEYS = st.one_of(
    st.sampled_from(["simple:", "k:", "class:"]).flatmap(
        lambda kind: st.sampled_from(["1", "2", "3", "x", ""]).map(lambda v: kind + v)
    ),
    st.tuples(_DIMS, st.sampled_from(["#0", "#1", "#3", "#-1", "#x", "", "#"])).map(
        lambda t: "class:" + t[0] + t[1]
    ),
    st.text(max_size=4),
)


@st.composite
def _argv(draw):
    """One command line and the JSON spec text it names, if any."""
    cmd = draw(st.sampled_from(["verify", "product", "idp", "identities", "enumerate"]))
    if cmd == "identities":
        argv = [cmd]
        for opt in ("--pmax", "--dmax", "--amax"):
            argv += [opt, str(draw(st.integers(-1, 3)))]
        return argv, None
    quiver = draw(_QUIVERS)
    spec = None if quiver.startswith("builtin:") else quiver
    argv = [cmd, quiver, "--q", str(draw(st.sampled_from([-1, 0, 1, 2, 3, 4])))]
    # a bounded raw search space keeps every enumeration small
    argv += ["--budget-space", str(draw(st.sampled_from([-1, 0, 64, 4096])))]
    budget_dim = draw(st.sampled_from([None, -1, 0, 3, 6]))
    if budget_dim is not None:
        argv += ["--budget-dim", str(budget_dim)]
    if cmd == "verify":
        argv += ["--parities", draw(st.sampled_from(["0,1", "0", "1", "2", "", "x", "0,,1"]))]
    elif cmd == "product":
        argv += [draw(_KEYS), draw(_KEYS)]
    elif cmd == "idp":
        argv += ["--vertex", draw(st.sampled_from(["1", "2", "3", "x"]))]
        argv += ["--n", str(draw(st.integers(-2, 4)))]
        parity = draw(st.sampled_from([None, "0", "1", "2"]))
        if parity is not None:
            argv += ["--parity", parity]
    else:
        argv += ["--dim", draw(_DIMS)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, spec


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_under_fuzzing(case):
    # every input ends in exit 0, 1, 2 or 3 without a traceback, and exit 1
    # only reports a relation or identity that failed
    argv, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            argv[1] = os.path.join(tmp, "spec.json")
            with open(argv[1], "w") as fh:
                fh.write(spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an option value
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, spec, code)
    if code == 1:
        text = out.getvalue()
        assert argv[0] in ("verify", "identities"), (argv, spec)
        assert "FAIL" in text or '"ok": false' in text, (argv, spec)


_TAILS = st.sampled_from(["--json", "-h", "--help", "--", "--q=2", "--budget-d", "-1", "x", "--q", "3", "--n", "--parity", "0"])


@st.composite
def _argv_with_tails(draw):
    """A fuzzed command line with tokens inserted, and options repeated or
    dropped, at several places."""
    argv, _ = draw(_argv())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(argv)))
        options = [i for i, token in enumerate(argv[:-1]) if token.startswith("--") and token != "--json"]
        how = draw(st.sampled_from(["insert", "repeat", "drop"])) if options else "insert"
        if how == "insert":
            argv.insert(at, draw(_TAILS))
            continue
        i = draw(st.sampled_from(options))
        if how == "repeat":
            argv[at:at] = [argv[i], draw(st.sampled_from([argv[i + 1], "x", "0", "1", "2", "-1", "-x"]))]
        else:
            del argv[i:i + 2]
    return argv


@given(_argv_with_tails())
@example(["verify", "builtin:a2-split"])
@example(["identities", "--pmax", "x", "--pmax", "2"])
@example(["enumerate", "builtin:a2-split", "--dim", "-1,2"])
@example(["idp", "builtin:rank1-split", "--vertex", "1", "--n", "2", "--parity", "2"])
@example(["idp", "builtin:rank1-split", "--n", "2"])
@example(["verify", "-x"])
@example(["product", "builtin:a2-split", "simple:1", "simple:2", "x"])
@settings(max_examples=500, deadline=None)
def test_plain_reader_matches_argparse(argv):
    # the reader takes a line or leaves it to argparse; a line it takes,
    # argparse accepts and reads to the same namespace
    read = ihall.cli._read(argv)
    if read is not None:
        assert vars(read) == vars(ihall.cli.build_parser().parse_args(argv)), argv

"""Command line interface: exit codes and payload shapes."""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import ihall
import ihall.cli
from ihall import frep, linalg
from ihall.cli import main
from ihall.iquiver import BUILTIN_NAMES
from child import CLI, run_child
from quivers import SPECS


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
    code, out, _ = run(capsys, "verify", "builtin:a2-split", "--parities", "0")
    assert code == 0
    assert "7/7 relations hold" in out


def test_verify_json_quiver_file(tmp_path, capsys):
    spec = tmp_path / "split2.json"
    spec.write_text(json.dumps(SPECS["split-2"]))
    code, out, _ = run(capsys, "verify", str(spec), "--q", "2")
    assert code == 0
    assert "relations hold" in out


def test_product_text(capsys):
    code, out, _ = run(capsys, "product", "builtin:kronecker-r1", "simple:1", "simple:2")
    assert code == 0
    assert out.strip() == (
        "(1*sqrt(2))[0,0#0]*K(1,0) + (1/2*sqrt(2))[1,1#0]"
        " + (1/2*sqrt(2))[1,1#2]"
    )


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", "builtin:kronecker-r1", "simple:1", "simple:2", "--json")
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
    code, out, _ = run(capsys, "product", "builtin:rank1-split", "class:3#0", "class:3#0", "--q", "5", "--json")
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
    argv = ["product", "builtin:rank1-split", "class:60#0", "k:1", "--budget-dim", "100"]
    code, out, err, _ = run_child(argv, "sys.setrecursionlimit(150); " + CLI)
    assert (code, out, err) == (0, "(1)[60#0]*K(1)\n", "")


def test_product_class_key(capsys):
    code, out, _ = run(capsys, "product", "builtin:a2-split", "class:1,0#0", "k:1")
    assert code == 0
    assert "K(1, 0)" in out or "K(1,0)" in out


def test_idp_command(capsys):
    code, out, _ = run(capsys, "idp", "builtin:rank1-split", "--vertex", "1", "--n", "2", "--parity", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert len(payload["terms"]) == 2


def test_idp_parity_at_a_moved_vertex_warns_in_one_line():
    # the warning reaches stderr as one plain line, not in Python's format
    # with the path and source line of the code that raised it; a run the
    # budget refuses prints its budget line alone
    cases = [
        (["--n", "2", "--parity", "0", "--json"], 0,
         "warning: parity has no effect at a vertex not fixed by the involution\n"),
        (["--n", "7", "--parity", "0"], 3,
         "budget exceeded: dimension vector (7, 0) has total 7 > budget 6\n"),
    ]
    for args, code, err in cases:
        argv = ["idp", "builtin:kronecker-r1", "--vertex", "1", *args]
        status, out, stderr, _ = run_child(argv)
        assert (status, stderr) == (code, err), argv
        if code == 0:
            assert json.loads(out)["parity"] == 0


def test_idp_missing_parity_is_input_error(capsys):
    code, _, err = run(capsys, "idp", "builtin:rank1-split", "--vertex", "1", "--n", "2")
    assert code == 2
    assert "parity" in err


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--pmax", "3", "--dmax", "3", "--amax", "2")
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
    code, out, _ = run(capsys, "enumerate", "builtin:a2-split", "--dim", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 2
    assert all(r["eps_zero"] for r in payload["classes"])
    assert {r["name"] for r in payload["classes"]} == {"1,1#0", "1,1#1"}


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "builtin:a2-split", "--dim", "4,4", "--budget-dim", "6")
    assert code == 3
    assert "budget" in err


def test_budget_refusal_words_an_exact_count_exactly(capsys):
    # a2-split's one arrow has exactly 2^2 = 4 candidates at (2, 1), and it
    # is the last arrow, so the count is not a lower bound
    code, _, err = run(capsys, "verify", "builtin:a2-split", "--budget-space", "3")
    assert code == 3
    assert err == "budget exceeded: raw search space 4 at dim (2, 1) exceeds budget 3\n"


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
    code, _, err = run(capsys, "product", "builtin:a2-split", "simple:1", "bogus")
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


_ASCII_LOCALE = (("LC_ALL", "C"), ("PYTHONCOERCECLOCALE", "0"), ("PYTHONUTF8", "0"))
_UTF8_SPEC = {"vertices": ["\u00e9", "2"], "arrows": [["\u03b1", "\u00e9", "2"]]}


def test_spec_file_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259) whatever the locale's encoding is
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(_UTF8_SPEC, ensure_ascii=False), encoding="utf-8")
    argv = ("verify", str(path), "--q", "2", "--json")
    status, out, err, _ = run_child(argv, env=_ASCII_LOCALE)
    assert (status, err) == (0, "")
    # the same payload as under the default locale, apart from the timing
    ascii_run, default_run = json.loads(out), json.loads(run_child(argv)[1])
    del ascii_run["elapsed_s"], default_run["elapsed_s"]
    assert ascii_run == default_run
    assert [r["ok"] for r in ascii_run["results"]] == [True] * 9


def test_text_and_vertex_names_are_utf8_in_an_ascii_locale(tmp_path):
    # vertex names are UTF-8 on the command line and in text output too, as
    # in the spec: each line reads as it does under the default locale
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(_UTF8_SPEC, ensure_ascii=False), encoding="utf-8")
    verify = ("verify", str(path), "--q", "2")
    status, out, err, _ = run_child(verify, env=_ASCII_LOCALE)
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert "ok   k(\u00e9) past B(\u00e9)" in lines and lines[-1].startswith("9/9 relations hold")
    assert lines[:-1] == run_child(verify)[1].splitlines()[:-1]  # the last line has the timing
    idp = ("idp", str(path), "--vertex", "\u00e9", "--n", "2", "--parity", "0")
    expected = (0, "(1/3)[0,0#0]*K(1,0) + (1/3)[2,0#0]\n", "")
    assert run_child(idp, env=_ASCII_LOCALE)[:3] == run_child(idp)[:3] == expected


_TWO = ["1", "2"]
MALFORMED_SPECS = [
    ({"vertices": 5}, 'quiver spec needs a "vertices" list'),
    ({"vertices": _TWO, "arrows": [{"src": "1", "tgt": "2"}]}, "cannot parse arrow entry"),
    ({"vertices": _TWO, "arrows": [7]}, "cannot parse arrow entry 7"),
    ({"vertices": ["1"], "tau": ["1"]}, '"tau" must be an object'),
    ({"vertices": [{"a": 1}]}, "a vertex id must be a string or an integer"),
    ({"vertices": [None, "None"]}, "a vertex id must be a string or an integer"),
    ({"vertices": []}, "a quiver needs at least one vertex"),
    ({"vertices": _TWO, "arrows": [["a", "1", "2"], ["a", "2", "1"]]}, "duplicate arrow names"),
    ({"vertices": ["1"], "arrows": [["a", "1", "2"]]}, "arrow a: unknown endpoint"),
    ({"vertices": _TWO, "tau": {"1": "1"}}, "tau misses vertex 2"),
    ({"vertices": ["1"], "tau": {"1": "2"}}, "tau(1) is not a vertex"),
    ({"vertices": _TWO, "arrows": [["a", "1", "2"], ["b", "1", "2"]], "tau_arrows": {"a": "a"}},
     "tau_arrows must be a bijection on all arrow names"),
    ({"vertices": _TWO, "arrows": [["a", "1", "2"], ["b", "2", "1"]], "tau_arrows": {"a": "b", "b": "a"}},
     "tau_arrows(a) = b does not respect tau on endpoints"),
    # three parallel arrows cycled: a bijection that respects the endpoints
    ({"vertices": _TWO, "arrows": [["a", "1", "2"], ["b", "1", "2"], ["c", "1", "2"]],
      "tau_arrows": {"a": "b", "b": "c", "c": "a"}}, "tau_arrows is not an involution"),
    ({"vertices": _TWO, "arrows": "a"}, '"arrows" must be a list'),
]


# the ids stay spec0, spec1, ... as rows are added
@pytest.mark.parametrize("spec, message", MALFORMED_SPECS, ids=["spec%d" % k for k in range(len(MALFORMED_SPECS))])
def test_malformed_quiver_spec_is_input_error(tmp_path, capsys, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: " + message), err


def test_unknown_spec_keys_are_input_errors(tmp_path, capsys):
    # "tau_arrow" for "tau_arrows": the arrows are not swapped, and the
    # identity pairing once gave 36 classes at (2, 2) where the swap has 34
    spec = dict(SPECS["split-2"], tau_arrow={"a1": "a2", "a2": "a1"})
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "enumerate", str(path), "--dim", "2,2")
    assert (code, out) == (2, "")
    assert err.startswith("error: quiver spec has unknown key 'tau_arrow'")
    spec["tau_arrows"] = spec.pop("tau_arrow")
    assert spec == SPECS["split-2-swapped"]
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
    code, _, err = run(capsys, "idp", "builtin:rank1-split", "--vertex", "9", "--n", "1")
    assert code == 2
    assert "unknown vertex '9'" in err


def test_product_bad_element_vertex_or_dimension_is_input_error(capsys):
    for key in ("simple:9", "k:9", "class:1#0", "class:1,-1#0"):
        code, _, err = run(capsys, "product", "builtin:a2-split", key, "simple:1")
        assert code == 2, key
        assert "error" in err
    # a malformed or negative index names the key, a malformed entry the
    # dimension vector; a negative index is refused before any table is
    # built, where the Lambda^i table at (4, 4) would exceed the budget
    for key, named in (("class:1,0#x", "class key 'class:1,0#x'"), ("class:1,0#0#1", "class key 'class:1,0#0#1'"),
                       ("class:1,#0", "dimension vector '1,'"), ("class:1,0", "class key 'class:1,0'"),
                       ("class:4,4#-1", "class key 'class:4,4#-1'"), ("class:1,1#99", "index 99 out of range")):
        code, _, err = run(capsys, "product", "builtin:a2-split", key, "k:1", "--q", "2", "--budget-dim", "8")
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


def _verify_payload(capsys):
    code, out, err = run(capsys, "verify", "builtin:a2-split", "--q", "3", "--json")
    out = json.loads(out)
    out.pop("elapsed_s")
    return code, out, err


@pytest.mark.parametrize("kind", ["empty-directory", "a-file", "below-a-file"])
def test_cache_dir_is_ignored(tmp_path, capsys, monkeypatch, kind):
    # no table is read from or written to disk: with IHALL_CACHE_DIR naming
    # an empty directory (twice), a file or a path below a file, every run
    # classifies its tables afresh, gives the payload of a run without the
    # variable, and leaves the directory empty
    classified = []
    classify = frep.ModuleTable._classify
    monkeypatch.setattr(frep.ModuleTable, "_classify", lambda self, dim: classified.append(dim) or classify(self, dim))
    monkeypatch.delenv("IHALL_CACHE_DIR", raising=False)
    want = _verify_payload(capsys)
    assert want[0] == 0 and classified
    cache = tmp_path / "cache"
    cache.mkdir()
    blocker = tmp_path / "file"
    blocker.write_text("")
    paths = {"empty-directory": [cache, cache], "a-file": [blocker], "below-a-file": [blocker / "cache"]}[kind]
    for path in paths:
        monkeypatch.setenv("IHALL_CACHE_DIR", str(path))
        classified.clear()
        assert _verify_payload(capsys) == want, path
        assert classified, path
    assert list(cache.iterdir()) == []


# The ihall modules each command line loads, as README's table lists them.
# Each runs as `python -m ihall.cli` runs it, so no module may import
# ihall.cli: that would compile cli a second time beside __main__. verify,
# idp and product load no Laurent polynomials (ring), verify and identities
# no element commands (elements), the kQ commands no Lambda^i module
# (lambda_i), and verify no q-series suites (qseries).
_HALL = {"ihall", "ihall.frep", "ihall.ihall", "ihall.iquiver", "ihall.linalg", "ihall.qsqrt"}
_VERIFY = _HALL | {"ihall.idp", "ihall.iqg"}
_ELEMENTS = _HALL | {"ihall.elements"}
_IDENTITIES = {"ihall", "ihall.qseries", "ihall.ring"}

# (command line, exit code, ihall modules loaded, plain); a plain line is
# read without argparse
MODULE_TABLE = [
    (["verify", "builtin:a3-quasisplit", "--q", "3"], 0, _VERIFY, True),
    (["verify", "SPEC", "--q", "2", "--parities", "0,1", "--json"], 0, _VERIFY, True),
    (["product", "builtin:kronecker-r1", "simple:1", "simple:2"], 0, _ELEMENTS, True),
    (["idp", "builtin:rank1-split", "--vertex", "1", "--n", "3", "--parity", "0"], 0, _ELEMENTS | {"ihall.idp"}, True),
    (["enumerate", "builtin:a2-split", "--dim", "2,1"], 0, _ELEMENTS | {"ihall.lambda_i"}, True),
    (["identities", "--pmax", "3", "--dmax", "3", "--amax", "3"], 0, _IDENTITIES, True),
    # the ceiling is checked before any suite runs
    (["identities", "--pmax", "100000000", "--dmax", "0", "--amax", "0"], 3, _IDENTITIES, True),
    (["verify", "builtin:kronecker-r1", "--q", "2"], 0, _VERIFY, True),
    (["verify", "builtin:a3-quasisplit", "--q", "2"], 0, _VERIFY, True),
    (["verify", "builtin:a2-split", "--q", "3"], 0, _VERIFY, True),
    (["verify", "builtin:a2-split", "--q", "3", "--json"], 0, _VERIFY, True),
    (["idp", "builtin:kronecker-r1", "--vertex", "1", "--n", "2"], 0, _ELEMENTS | {"ihall.idp"}, True),
    (["idp", "builtin:rank1-split", "--vertex", "1", "--n", "3", "--parity", "1"], 0, _ELEMENTS | {"ihall.idp"}, True),
    (["product", "builtin:kronecker-r1", "simple:1", "k:2"], 0, _ELEMENTS, True),
    # the kQ classes at (1, 1) are #0 to #2
    (["product", "builtin:kronecker-r1", "class:1,1#2", "class:1,0#0"], 0, _ELEMENTS, True),
    (["product", "builtin:kronecker-r1", "class:1,1#3", "simple:2"], 0, _ELEMENTS | {"ihall.lambda_i"}, True),
    (["product", "builtin:a2-split", "simple:1", "simple:2", "--q", "3"], 0, _ELEMENTS, True),
    (["enumerate", "builtin:a2-split", "--dim", "1,1"], 0, _ELEMENTS | {"ihall.lambda_i"}, True),
    # help and usage errors come from argparse
    (["verify", "--help"], 0, {"ihall"}, False),
    (["verify", "builtin:a2-split", "--no-such-option"], 2, {"ihall"}, False),
]
# argparse and what it loads
_ARGPARSE = {"argparse", "gettext", "locale", "__future__"}
# every scalar is a LaurentPoly or a QSqrt over ints (so no fractions, nor
# the decimal and numbers it imports), no table touches the disk (hashlib,
# pickle), and the reference routes of ihall.oracle serve the tests alone
_NEVER = {"fractions", "decimal", "numbers", "hashlib", "pickle", "ihall.oracle"}


# the row ids stay argv0-loads0, argv1-loads1, ... as rows are added
@pytest.mark.parametrize(
    "argv, code, loads, plain", MODULE_TABLE, ids=["argv%d-loads%d" % (k, k) for k in range(len(MODULE_TABLE))]
)
def test_each_command_loads_its_row_of_the_module_table(tmp_path, argv, code, loads, plain):
    if "SPEC" in argv:
        spec = tmp_path / "split2.json"
        spec.write_text(json.dumps(SPECS["split-2"]))
        argv = [str(spec) if a == "SPEC" else a for a in argv]
    status, _, err, loaded = run_child(argv)
    assert status == code, err
    assert {m for m in loaded if m.partition(".")[0] == "ihall"} == loads
    assert not loaded & _NEVER
    if plain:
        assert not loaded & _ARGPARSE
    else:
        assert "argparse" in loaded


# Contracts that hold on some rows of the module table, checked on the
# table's own child runs
def _loaded(argv):
    status, _, err, loaded = run_child(argv)
    assert status == 0, err
    return loaded


def test_identities_loads_only_its_layers():
    # the q-identity suites compile neither the module side nor the relation
    # suite (iqg) nor QSqrt
    assert {m for m in _loaded(MODULE_TABLE[5][0]) if m.startswith("ihall")} == _IDENTITIES


@pytest.mark.parametrize("argv", [MODULE_TABLE[k][0] for k in (7, 11, 5, 13, 14)])
def test_kq_commands_load_no_lambda_module(argv):
    assert "ihall.lambda_i" not in _loaded(argv)  # the product engine runs on the kQ table alone


@pytest.mark.parametrize("argv", [MODULE_TABLE[k][0] for k in (17, 15)])
def test_lambda_classes_load_the_lambda_module(argv):
    assert "ihall.lambda_i" in _loaded(argv)


def test_verify_never_loads_the_q_series_suites():
    loaded = _loaded(MODULE_TABLE[8][0])
    assert {"ihall.iqg", "ihall.qsqrt"} <= loaded and not {"ihall.qseries", "ihall.oracle"} & loaded


@pytest.mark.parametrize("argv", [MODULE_TABLE[k][0] for k in (9, 5)])
def test_commands_leave_the_oracles_out(argv):
    assert "ihall.oracle" not in _loaded(argv)


@pytest.mark.parametrize("argv", [MODULE_TABLE[k][0] for k in (9, 16, 12, 17, 5)])
def test_commands_load_no_fractions(argv):
    assert not {"fractions", "decimal", "numbers"} & _loaded(argv)


@pytest.mark.parametrize("argv, plain", [(MODULE_TABLE[k][0], MODULE_TABLE[k][3]) for k in (10, 16, 12, 17, 5, 18, 19)])
def test_plain_command_lines_load_no_argparse(argv, plain):
    # help and usage errors still come from argparse
    status, _, _, loaded = run_child(argv)
    assert status == (0 if plain or "--help" in argv else 2)
    assert not loaded & _ARGPARSE if plain else "argparse" in loaded


def test_identities_past_its_ceiling_exits_3_at_once():
    # the ceiling is checked before any suite runs, naming the bound; the
    # module table runs one such line in a fresh interpreter
    from ihall.qseries import CEILING

    assert list(CEILING) == ["pmax", "dmax", "amax"]
    for bound, ceiling in CEILING.items():
        argv = ["identities", "--pmax", "0", "--dmax", "0", "--amax", "0"]
        argv[argv.index("--" + bound) + 1] = str(ceiling + 1)
        out = io.StringIO()
        with contextlib.redirect_stderr(out):
            assert main(argv) == 3
        assert out.getvalue() == "budget exceeded: --%s %d is past its ceiling %d\n" % (bound, ceiling + 1, ceiling)


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
    _, _, _, loaded = run_child(code="import ihall.qsqrt")
    assert {m for m in loaded if m.startswith("ihall")} == {"ihall", "ihall.qsqrt"}


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


def test_no_module_loads_fractions():
    # the oracles too take their scalars as ints, LaurentPoly and QSqrt
    code = """if True:
        import importlib, pkgutil
        import ihall
        names = sorted(m.name for m in pkgutil.iter_modules(ihall.__path__, "ihall."))
        for name in names:
            importlib.import_module(name)
        print(len(names))
    """
    status, out, _, loaded = run_child(code=code)
    assert status == 0 and int(out) >= 13
    assert "ihall.oracle" in loaded and "fractions" not in loaded


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


def test_no_module_checks_by_assert():
    # python -O strips assert statements, so a check the program relies on
    # is an explicit raise
    src = os.path.dirname(ihall.__file__)
    names = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert len(names) >= 14
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (name, lines)


def test_every_private_name_has_a_reader():
    # a private name (_x, not a dunder) bound at module level or in a class
    # body is read somewhere in the package: as a name, an attribute or an
    # imported name; one with no reader is dead code
    src = os.path.dirname(ihall.__file__)
    names = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert len(names) >= 14
    defined, read = {}, set()
    for name in names:
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for scope, body in [(name[:-3], tree.body)] + [
            ("%s.%s" % (name[:-3], node.name), node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        ]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                for b in bound:
                    if b.startswith("_") and not b.endswith("__"):
                        defined.setdefault(b, []).append(scope)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert {b: scopes for b, scopes in defined.items() if b not in read} == {}


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
    st.sampled_from(["builtin:" + n for n in BUILTIN_NAMES] + ["builtin:nope", "builtin:"]),
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

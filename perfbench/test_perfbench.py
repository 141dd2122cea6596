"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ihall import iqg  # noqa: E402
from ihall.cli import main as cli_main  # noqa: E402
from ihall.iqg import adu_triples, build_relation_suite  # noqa: E402
from ihall.iquiver import BUILTIN_NAMES, build_iquiver, builtin_iquiver  # noqa: E402

import run  # noqa: E402
from checks import RELATIONS, check_job, identity_rows  # noqa: E402
from spans import Tracer  # noqa: E402
from specs import BASE_SPECS, relabel  # noqa: E402


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = Tracer("r", clock=lambda: next(ticks))
    t.open("a")
    t.open("b")
    t.open("c")
    t.close()
    t.close()
    t.open("d")
    t.close()
    t.close()
    assert dict(t.self_s) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}
    assert dict(t.total_s) == {"a": 10.0, "b": 3.0, "c": 1.0, "d": 4.0}
    parents = {name: parent for _, name, _, _, parent in t.spans}
    ids = {name: sid for sid, name, _, _, _ in t.spans}
    assert parents == {"a": None, "b": ids["a"], "c": ids["b"], "d": ids["a"]}


def test_repeated_name_sums_self_time_and_unkept_spans_still_count():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    t = Tracer("r", clock=lambda: next(ticks))
    t.open("q")
    t.open("q")
    t.close(keep=False)
    t.close(keep=False)
    assert t.calls["q"] == 2
    assert t.self_s["q"] == 4.0
    assert t.spans == []


def _verify_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_forced_nonzero_residual_is_counted_as_failure(monkeypatch):
    argv = ["verify", "builtin:rank1-split", "--json"]
    expected = RELATIONS["rank1-split"]
    assert check_job(expected, *_verify_json(argv)) == (expected + 1, 0)
    monkeypatch.setattr(iqg, "relation_residual", lambda algebra, inst, psi=None: algebra.one())
    code, out = _verify_json(argv)
    assert code == 1
    assert check_job(expected, code, out) == (expected + 1, expected + 1)


def test_wrong_count_exit_code_and_garbage_are_failures():
    rows = [{"relation": "r%d" % k, "ok": True} for k in range(8)]
    good = json.dumps({"results": rows, "ok": True})
    assert check_job(8, 0, good) == (9, 0)
    assert check_job(9, 0, good) == (10, 2)      # one row missing, count wrong
    assert check_job(8, 3, good) == (9, 1)       # BudgetError exit code
    assert check_job(8, 0, "Traceback ...") == (9, 9)


def test_relabelling_is_deterministic_and_keeps_relation_counts():
    for name in BASE_SPECS:
        seen = set()
        for seed in range(6):
            spec = relabel(name, seed)
            assert spec == relabel(name, seed)
            assert len(build_relation_suite(build_iquiver(spec))) == RELATIONS[name]
            seen.add(json.dumps(spec, sort_keys=True))
        assert len(seen) == 6


def test_base_specs_are_the_builtins():
    for name in BUILTIN_NAMES:
        assert build_iquiver(BASE_SPECS[name]).signature() == builtin_iquiver(name).signature()


def test_identity_row_count():
    assert identity_rows(8) == 122
    for amax in range(9):
        assert identity_rows(amax) == 7 + len(list(adu_triples(amax)))


def test_traced_job_patches_names_imported_from_other_modules(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced_job.py"), str(out), "t",
         "identities", "--pmax", "2", "--dmax", "2", "--amax", "1", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert check_job(identity_rows(1), 0, proc.stdout) == (identity_rows(1) + 1, 0)
    dump = json.loads(out.read_text())
    assert dump["calls"]["cli.main"] == 1
    assert dump["calls"]["iqg.km1_residual"] == 3        # p = 0, 1, 2
    assert dump["calls"]["ring.qcomb"] > 0                # qbinom, imported into iqg
    assert dump["calls"]["ring.laurent_mul"] > 0
    metrics = run.layer_metrics([dump], 0.0)
    assert metrics["iqg.km1_residual.s"][0] > 0
    assert metrics["ring.qcomb.self_s"][0] <= dump["total_s"]["ring.qcomb"]


def test_benchmark_json_names_the_metrics_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = run.layer_metrics([], 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in layer.items()}



def test_speedometer_scales_each_stretch_by_the_loop_speed_around_it():
    meter = run.Speedometer()
    ref = run.REF_SAMPLE_S
    # 0.1 s apart: 20 samples at the reference speed, then 20 at half of it
    meter.samples = [(k / 10, ref if k < 20 else 2 * ref) for k in range(40)]
    assert abs(meter.scaled(0.5, 1.5) - 1.0) < 1e-12
    assert abs(meter.scaled(2.5, 3.5) - 0.5) < 1e-12
    # an interval across the phase change counts each side at its own speed
    assert abs(meter.scaled(1.45, 2.45) - (0.5 + 0.25)) < 1e-12
    # past the last sample the last speed holds
    assert abs(meter.scaled(3.9, 5.9) - 1.0) < 1e-12


def test_speedometer_thread_samples_while_running():
    with run.Speedometer(period=0.005) as meter:
        time.sleep(0.1)
    assert meter.samples and all(cpu > 0 for _, cpu in meter.samples)
    t0, t1 = meter.samples[0][0], meter.samples[-1][0]
    assert meter.scaled(t0, t1) > 0

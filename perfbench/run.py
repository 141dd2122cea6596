"""The ihall benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ``src``. Each
job is a fresh ``python3 -m ihall.cli ... --json`` process, run one at a time,
so in-memory memos never carry over from one job to the next. A workload's
"whole job" is its list of jobs run in order.

Workloads (``identities`` does not depend on the seed; the other two run
seeded relabellings of the quiver specs, see ``specs.py``):

  verify-cold  ``verify --parities 0,1`` on the four builtins and on the split
               rank-2 quiver with two arrows, at q = 2 and 3, with no disk
               cache: module enumeration dominates.
  identities   ``identities`` on a reduced range (see IDENTITIES_ARGS): pure
               q-series arithmetic, no modules at all.
  serre-warm   ``verify`` on the split rank-2 quiver with two arrows at q = 2
               and 3, reading module tables from a private disk cache that
               set-up fills: Hall numbers dominate, enumeration is bypassed.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
seconds per whole job, the checks of its outputs included, over the
repetitions that fit in ``--seconds``),
``setup_s`` (median seconds of one set-up: interpreter start and
``import ihall``, writing the seeded specs and, for serre-warm, filling the
cache) and ``peak_rss_mb`` (median over repetitions of the largest peak
resident memory among the whole job's processes).

Both times are in reference seconds. The raw speed of a small shared VM
wanders by up to 1.6x in phases of a few to tens of seconds, each vCPU on its
own, which is more than any bound a benchmark can hold. So the benchmark and
every process it starts are pinned to one CPU, and a thread (``Speedometer``)
times a short fixed loop on that CPU twenty times a second, in the thread's
own CPU time: sharing the CPU with the program does not slow the loop, a slow
phase of the host does. Each stretch of a timed interval counts at
``REF_SAMPLE_S`` over the loop's time around it, so an interval run at the
reference speed keeps its wall seconds, the program's own speed moves the
result and the host's phase cancels. The raw medians are printed beside the
scaled ones. Pinning hides any gain from running on more than one CPU; the
program runs on one.

With ``--trace 1`` one set-up and one whole job run under the span tracer
(``spans.py``) and the run reports the per-layer metrics, summed over those
processes, with ``trace.overhead_s``: traced minus untraced whole-job seconds.
Span times are raw seconds; ``trace.overhead_s`` is in reference seconds.
The spans are written to ``.perfbench_work/trace-<workload>.json``.

Every run also checks every job's output (``checks.py``) and the enumeration
digests (``digests.py``, outside the timed region). Failed checks over checks
attempted is the fail ratio; any failure makes the run exit 1.

Tests of the benchmark's own logic: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from checks import RELATIONS, check_job, identity_rows
from spans import IDENTITY_FAMILIES
from specs import relabel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# the default range (pmax 12, dmax 12, amax 8) takes about 45 s per job on the
# baseline machine, longer than a whole run may spend on one sample
IDENTITIES_AMAX = 7
IDENTITIES_ARGS = ["--pmax", "10", "--dmax", "8", "--amax", str(IDENTITIES_AMAX)]
QS = (2, 3)
# Raw speed on the 2-core VM the baseline was taken on wanders by up to 1.6x
# (other tenants of the host); the Speedometer takes that out of the reported
# times. See baseline.json for the measured spreads.
MIN_REPS = 2          # whole jobs per run, however long they take
MIN_SETUPS = 3        # set-ups per run; more while they take under SETUP_SECONDS
SETUP_SECONDS = 1.5
DEADLINE_S = 170      # a run stops starting work and fails past this point
SAMPLE_PERIOD_S = 0.05  # the speedometer's loop runs twenty times a second
SAMPLE_ROUNDS = 25      # about 1 ms of loop
REF_SAMPLE_S = 0.001    # the loop's CPU seconds at the reference speed; fixed
SMOOTH = 5              # loop timings in the rolling median that sets a stretch's speed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def speed_loop(rounds):
    """A fixed loop of the dict-of-ints arithmetic the program's Laurent
    polynomials do."""
    p = {k: k + 1 for k in range(-8, 9)}
    for _ in range(rounds):
        out = {}
        for i, a in p.items():
            for j, b in p.items():
                out[i + j] = out.get(i + j, 0) + a * b


class Speedometer:
    """Samples the speed of the CPU the run is pinned to, from a thread, while
    the run goes on; ``scaled`` turns a timed interval into reference seconds."""

    def __init__(self, period=SAMPLE_PERIOD_S):
        self.period = period
        self.samples = []       # (perf_counter mid-loop, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(self.period):
            t, cpu = time.perf_counter(), time.thread_time()
            speed_loop(SAMPLE_ROUNDS)
            self.samples.append(((t + time.perf_counter()) / 2, time.thread_time() - cpu))

    def scaled(self, t0, t1):
        """Reference seconds of the interval [t0, t1]. Each sample stands for
        the stretch nearer to it than to its neighbours, at the speed of the
        rolling median of the loop timings around it. Call after the thread
        has stopped, so samples after t1 are in."""
        n = len(self.samples)
        if not n:
            raise RuntimeError("the speedometer took no samples")
        times = [t for t, _ in self.samples]
        half = SMOOTH // 2
        total = 0.0
        for i, t in enumerate(times):
            lo = (times[i - 1] + t) / 2 if i else float("-inf")
            hi = (t + times[i + 1]) / 2 if i + 1 < n else float("inf")
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                window = [cpu for _, cpu in self.samples[max(0, i - half):i + half + 1]]
                total += overlap * REF_SAMPLE_S / statistics.median(window)
        return total


class Workload:
    def __init__(self, name, quivers, cli_args, warm):
        self.name = name
        self.quivers = quivers      # base spec names, relabelled per seed
        self.cli_args = cli_args    # [(label, ihall args, expected rows)] given spec paths
        self.warm = warm            # set-up fills a private disk cache


def _verify_jobs(quivers):
    def jobs(paths):
        return [
            ("%s q=%d" % (name, q),
             ["verify", paths[name], "--q", str(q), "--parities", "0,1", "--json"],
             RELATIONS[name])
            for name in quivers
            for q in QS
        ]
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-cold",
            ("rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1", "split-a2"),
            _verify_jobs(("rank1-split", "a2-split", "a3-quasisplit", "kronecker-r1", "split-a2")),
            warm=False,
        ),
        Workload(
            "identities",
            (),
            lambda paths: [("identities", ["identities"] + IDENTITIES_ARGS + ["--json"],
                            identity_rows(IDENTITIES_AMAX))],
            warm=False,
        ),
        Workload("serre-warm", ("split-a2",), _verify_jobs(("split-a2",)), warm=True),
    )
}


class Runner:
    """Starts and checks the program's processes for one benchmark run."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._n = 0
        self.env = dict(os.environ)
        # never let the caller's environment turn a cold run warm
        self.env.pop("IHALL_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["PYTHONHASHSEED"] = "0"

    def record(self, label, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append("%s: %d of %d checks failed" % (label, failed, attempted))

    def spawn(self, argv, env_extra=None):
        """Run one process to completion: (seconds, peak RSS in MB, exit code, stdout)."""
        self._n += 1
        out_path = os.path.join(self.workdir, "out-%d.txt" % self._n)
        err_path = os.path.join(self.workdir, "err-%d.txt" % self._n)
        env = dict(self.env, **(env_extra or {}))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return 0.0, 0.0, -1, "deadline passed before the job started"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated (see main): take the process down with us
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(fd)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path) as fh:
                sys.stderr.write(fh.read()[-2000:])
        os.remove(out_path)
        os.remove(err_path)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def run_job(self, job, env_extra=None, trace_to=None):
        label, cli_args, expected = job
        if trace_to is None:
            argv = [sys.executable, "-m", "ihall.cli"] + cli_args
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_job.py"), trace_to, label] + cli_args
        seconds, rss, code, stdout = self.spawn(argv, env_extra)
        self.record(label, *check_job(expected, code, stdout))
        return seconds, rss

    def check_digests(self):
        _, _, code, stdout = self.spawn([sys.executable, os.path.join(HERE, "digests.py"), "--check"])
        with open(os.path.join(HERE, "digests.json")) as fh:
            expected = len(json.load(fh))
        try:
            result = json.loads(stdout)
            failed = len(result["mismatches"]) if code == 0 else expected
        except (ValueError, KeyError):
            failed = expected
        self.record("enumeration digests", expected, failed)


class Bench:
    def __init__(self, workload, seed, runner):
        self.w = workload
        self.seed = seed
        self.runner = runner
        self.cache_dir = None
        self.jobs = None
        self._setups = 0
        self._traces = []

    def _trace_path(self):
        path = os.path.join(self.runner.workdir, "trace-%d.json" % len(self._traces))
        self._traces.append(path)
        return path

    def setup(self, traced=False):
        """One set-up; returns its (start, end) perf_counter times. The last
        one's specs and cache are the ones used."""
        r = self.runner
        t0 = time.perf_counter()
        code = r.spawn([sys.executable, "-c", "import ihall"])[2]
        r.record("import ihall", 1, int(code != 0))
        spec_dir = os.path.join(r.workdir, "specs-seed%d" % self.seed)
        os.makedirs(spec_dir, exist_ok=True)
        paths = {}
        for name in self.w.quivers:
            paths[name] = os.path.join(spec_dir, "%s.json" % name)
            with open(paths[name], "w") as fh:
                json.dump(relabel(name, self.seed), fh)
        self.jobs = self.w.cli_args(paths)
        if self.w.warm:
            if self.cache_dir:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
            self._setups += 1
            self.cache_dir = os.path.join(r.workdir, "cache-seed%d-%d" % (self.seed, self._setups))
            for job in self.jobs:
                r.run_job(job, self.env(), self._trace_path() if traced else None)
        return t0, time.perf_counter()

    def env(self):
        return {"IHALL_CACHE_DIR": self.cache_dir} if self.cache_dir else None

    def whole_job(self, traced=False):
        """((start, end) perf_counter times, peak RSS in MB) of one pass over
        the workload's jobs, checks included."""
        t0, peak = time.perf_counter(), 0.0
        for job in self.jobs:
            _, rss = self.runner.run_job(job, self.env(), self._trace_path() if traced else None)
            peak = max(peak, rss)
        return (t0, time.perf_counter()), peak

    def repeat(self, seconds):
        reps = []
        t0 = time.perf_counter()
        # past the deadline a whole job fails at once, so reps is never empty
        while len(reps) < MIN_REPS or (
            time.perf_counter() - t0 < seconds and time.perf_counter() < self.runner.deadline
        ):
            reps.append(self.whole_job())
        return reps

    def traces(self):
        dumps = []
        for path in self._traces:
            try:
                with open(path) as fh:
                    dumps.append(json.load(fh))
            except (OSError, ValueError):
                self.runner.record("trace file %s" % os.path.basename(path), 1, 1)
        return dumps


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps, overhead_s):
    """Per-layer metrics summed over the traced processes' dumps."""
    calls, total, own, extra = Counter(), Counter(), Counter(), Counter()
    for d in dumps:
        calls.update(d["calls"])
        total.update(d["total_s"])
        own.update(d["self_s"])
        extra.update(d["extra"])
    enum_s = total["frep.enumerate_reps"]
    dec_calls = calls["frep.decomposition"]
    m = {
        "frep.enumerate_reps.s": (enum_s, "s"),
        "frep.enumerate_reps.calls": (calls["frep.enumerate_reps"], "count"),
        "frep.reps": (extra["frep.reps"], "count"),
        "frep.raw_candidates": (extra["frep.raw_candidates"], "count"),
        "frep.accept_ratio": (_ratio(extra["frep.reps"], extra["frep.raw_candidates"]), "ratio"),
        "frep.reps_per_s": (_ratio(extra["frep.reps"], enum_s), "1/s"),
        "frep.classify.self_s": (own["frep.classify"], "s"),
        "frep.classes": (extra["frep.classes"], "count"),
        "frep.decomposition.calls": (dec_calls, "count"),
        "frep.decomposition.computed": (extra["frep.decomposition.computed"], "count"),
        "frep.decomposition.hit_ratio": (
            _ratio(dec_calls - extra["frep.decomposition.computed"], dec_calls), "ratio"),
        "frep.decomposition.self_s": (own["frep.decomposition"], "s"),
        "frep.homology_reduce.calls": (calls["frep.homology_reduce"], "count"),
        "frep.homology_reduce.self_s": (own["frep.homology_reduce"], "s"),
        "frep.hom_count.calls": (calls["frep.hom_count"], "count"),
        "frep.cache.hits": (extra["frep.cache.hits"], "count"),
        "frep.cache.misses": (extra["frep.cache.misses"], "count"),
        "frep.cache.load_s": (total["frep.cache.load"], "s"),
        "frep.cache.store_s": (total["frep.cache.store"], "s"),
        "frep.cache.bytes": (extra["frep.cache.bytes"], "B"),
        "linalg.mat_mul.calls": (calls["linalg.mat_mul"], "count"),
        "linalg.mat_vec.calls": (calls["linalg.mat_vec"], "count"),
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "ihall.mul.calls": (calls["ihall.mul"], "count"),
        "ihall.mul.self_s": (own["ihall.mul"], "s"),
        "ihall.mul.terms_out": (extra["ihall.mul.terms_out"], "count"),
        "idp.idp_hall.calls": (calls["idp.idp_hall"], "count"),
        "idp.idp_hall.self_s": (own["idp.idp_hall"], "s"),
        "iqg.relation_residual.calls": (calls["iqg.relation_residual"], "count"),
        "iqg.relation_residual.self_s": (own["iqg.relation_residual"], "s"),
    }
    for fn in IDENTITY_FAMILIES:
        m["iqg.%s.s" % fn] = (total["iqg.%s" % fn], "s")
    m.update({
        "ring.laurent_mul.calls": (calls["ring.laurent_mul"], "count"),
        "ring.qsqrt_mul.calls": (calls["ring.qsqrt_mul"], "count"),
        "ring.exact_div.calls": (calls["ring.exact_div"], "count"),
        "ring.qcomb.calls": (calls["ring.qcomb"], "count"),
        "ring.qcomb.self_s": (own["ring.qcomb"], "s"),
        "cli.import_s": (statistics.median(d["import_s"] for d in dumps) if dumps else 0.0, "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return {k: (int(v) if u in ("count", "B") else float(v), u) for k, (v, u) in m.items()}


def _percentile_note(values):
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return "p%d %.4f" % (p, cut)
    return "no percentile (n=%d < 40)" % n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ihall", "cli.py")):
        print("perfbench: no program at %s; run from the root of an ihall checkout" % SRC,
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    # a SIGTERM unwinds like an exception, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # children inherit the mask: the program and the speedometer share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, deadline)
        bench = Bench(WORKLOADS[args.workload], args.seed, runner)
        if args.trace:
            with Speedometer() as meter:
                bench.setup(traced=True)
                reps = bench.repeat(args.seconds)
                traced, _ = bench.whole_job(traced=True)
            dumps = bench.traces()
            overhead = meter.scaled(*traced) - statistics.median(meter.scaled(*span) for span, _ in reps)
            metrics = layer_metrics(dumps, overhead)
            with open(os.path.join(WORK, "trace-%s.json" % args.workload), "w") as fh:
                json.dump({"seed": args.seed, "processes": dumps}, fh)
        else:
            setups = []
            with Speedometer() as meter:
                while len(setups) < MIN_SETUPS or (
                    sum(t1 - t0 for t0, t1 in setups) < SETUP_SECONDS
                    and time.perf_counter() < deadline
                ):
                    setups.append(bench.setup())
                reps = bench.repeat(args.seconds)
            walls = [meter.scaled(*span) for span, _ in reps]
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(meter.scaled(*span) for span in setups),
                "peak_rss_mb": statistics.median(rss for _, rss in reps),
            }
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
            print("%s seed=%d wall_s: median %.4f s over n=%d whole jobs, %s (raw median %.4f s); "
                  "setup_s: median %.4f s over n=%d set-ups (raw median %.4f s); "
                  "peak_rss_mb: median %.1f MB, n=%d; speed samples: %d"
                  % (args.workload, args.seed, values["wall_s"], len(walls),
                     _percentile_note(walls), statistics.median(t1 - t0 for (t0, t1), _ in reps),
                     values["setup_s"], len(setups), statistics.median(t1 - t0 for t0, t1 in setups),
                     values["peak_rss_mb"], len(reps), len(meter.samples)))
        runner.check_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if time.perf_counter() > deadline:
        runner.record("deadline of %d s" % DEADLINE_S, 1, 1)
    for err in runner.errors:
        print("FAIL %s" % err)
    print("%s seed=%d fail_ratio: %d/%d = %.6f"
          % (args.workload, args.seed, runner.failed, runner.attempted,
             _ratio(runner.failed, runner.attempted)))
    ok = runner.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate for the jobs the benchmark runs.

Every job runs ``ihall ... --json``. Its checks are one per expected result
row (a relation residual or an identity family) plus one for the job as a
whole: exit code 0, parseable JSON, ``ok`` true and the expected number of
rows. A row that is not ok, a missing row, a wrong count, a ``BudgetError``
(exit 3), any other nonzero exit or a crash is a failed check.
"""

import json

# relations in `ihall verify --parities 0,1`, per quiver; they do not depend on q
RELATIONS = {
    "rank1-split": 1,
    "a2-split": 9,
    "a3-quasisplit": 20,
    "kronecker-r1": 7,
    "split-a2": 9,
}


def identity_rows(amax):
    """Rows of `ihall identities`: seven families plus one per admissible (a, d, u)."""
    triples = sum(
        1
        for a in range(amax + 1)
        for d in range((a + 1) // 2 + 1)
        for u in range(a + 2 - 2 * d)
        if (d, u) != (0, 0)
    )
    return 7 + triples


def check_job(expected_rows, returncode, stdout):
    """(attempted, failed) checks for one finished job."""
    attempted = expected_rows + 1
    try:
        payload = json.loads(stdout)
        rows = payload["results"]
        ok = payload["ok"]
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    bad_rows = sum(1 for r in rows[:expected_rows] if r.get("ok") is not True)
    bad_rows += max(0, expected_rows - len(rows))
    job_failed = returncode != 0 or ok is not True or len(rows) != expected_rows
    return attempted, bad_rows + int(job_failed)

"""Run one ``ihall`` command under the span tracer.

    python3 perfbench/traced_job.py <trace-out.json> <run-id> <ihall args...>

The command's output and exit code are those of ``ihall`` itself; the spans,
counters and the import time of ``ihall.cli`` go to ``trace-out.json``.
"""

import json
import sys
import time

from spans import Tracer, instrument


def main(argv):
    out_path, run_id, args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import ihall.cli  # timed: this is the import a user pays
    import_s = time.perf_counter() - t0
    tracer = Tracer(run_id)
    instrument(tracer)
    try:
        code = ihall.cli.main(args)
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

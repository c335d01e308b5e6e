"""One cli-eval op: import dfw.cli in this fresh process and run main().

    python3 perfbench/eval_child.py [--trace] eval EXPR [--relations FILE]

main()'s output goes to stdout and its return value becomes the exit code.
The last line of stderr is a JSON report: the op time from before the
import to the return of main (interpreter start-up is not in it), its two
parts, the process's peak resident set and, with --trace, the span stats.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
        sys.path.insert(0, str(HERE))
        from spans import Tracer
    sys.path.insert(0, str(HERE.parent / "src"))

    t0 = time.perf_counter()
    import dfw.cli

    t1 = time.perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        t1b = time.perf_counter()
    else:
        t1b = t1
    rc = dfw.cli.main(argv)
    t2 = time.perf_counter()
    sys.stdout.flush()

    report = {
        "op_s": (t1 - t0) + (t2 - t1b),
        "import_ms": (t1 - t0) * 1e3,
        "main_ms": (t2 - t1b) * 1e3,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        from dfw import linalg

        report["stats"] = tracer.stats()
        report["cache"] = {
            "column_echelon": linalg.column_echelon.cache_info()._asdict(),
            "smith_diagonal": linalg.smith_diagonal.cache_info()._asdict(),
        }
        report["spans"] = [
            [tracer.names[tracer.name_id[i]], tracer.start[i] - t1b, tracer.end[i] - t1b, tracer.parent[i]]
            for i in range(len(tracer.start))
        ]
    sys.stderr.write(json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())

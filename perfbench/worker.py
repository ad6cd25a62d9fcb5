"""Run benchmark jobs inside this interpreter and report on them as JSON.

Reads {"jobs": [{"argv": [...], "stdin": "..."}], "trace": bool} from
stdin, imports matchbij from the checkout's ``src``, and calls
``matchbij.cli.run(argv)`` once per job with stdin, stdout and stderr
redirected. Writes one JSON object to the real stdout: per job the exit
code, any exception that escaped ``cli.run``, the wall time of the call and
what the sinks saw; the process's peak RSS; and, when traced, the
per-function aggregates.

    python3 perfbench/worker.py < spec.json
"""

import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEEP_CHARS = 8192


class Sink:
    """Stands in for a text stream: counts and hashes what is written and
    keeps only its first KEEP_CHARS characters, so the benchmark's own
    buffers stay out of the peak RSS it reports."""

    def __init__(self):
        self.bytes = self.lines = 0
        self.head = ""
        self._sha = hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self._sha.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        if len(self.head) < KEEP_CHARS:
            self.head += text[:KEEP_CHARS - len(self.head)]
        return len(text)

    def flush(self) -> None:
        pass

    def summary(self) -> dict:
        return {"bytes": self.bytes, "lines": self.lines,
                "sha256": self._sha.hexdigest(), "head": self.head}


def run_job(cli, argv: list[str], stdin: str) -> dict:
    out, err = Sink(), Sink()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    error = rc = None
    start = time.perf_counter()
    try:
        rc = cli.run(argv)
    except Exception as exc:  # an escaping exception is a job failure to report
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"rc": rc, "error": error, "start": start, "seconds": seconds,
            "stderr": err.head[:500], **out.summary()}


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import matchbij.cli

    if Path(matchbij.__file__).resolve().parent != ROOT / "src" / "matchbij":
        sys.stderr.write(f"matchbij imported from {matchbij.__file__}, not the checkout\n")
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        jobs = [run_job(matchbij.cli, job["argv"], job["stdin"]) for job in spec["jobs"]]
    finally:
        if tracer:
            tracer.uninstall()
    json.dump({
        "jobs": jobs,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": {k: s.as_dict() for k, s in tracer.stats.items()} if tracer else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

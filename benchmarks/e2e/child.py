"""One workload process: set up, then optionally measure.

``run.py`` starts this several times per workload and times each start
from spawn to the end of set-up; only the last start measures::

    python3 benchmarks/e2e/child.py '{"name": "search-p16", "seed": 0, ...}'

The result goes, as JSON, to the ``result`` path named in the argument.
"""

import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from common import SRC, WORK, Oracle, metric, peak_rss_mb
from workloads import WORKLOADS


def run(job: dict) -> dict:
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{job['name']}-"))
    oracle = Oracle()
    try:
        spec = WORKLOADS[job["name"]]
        if spec["kind"] == "serve":
            from serve_wl import ServeWorkload as Workload
        else:
            from search_wl import SearchWorkload as Workload
        workload = Workload(spec, work, oracle, job["smoke"])
        try:
            workload.setup()
            setup_s = time.time() - job["spawned_at"]
            out = workload.measure(job["seed"], job["seconds"],
                                   job["trace"]) if job["measure"] else {}
        finally:
            workload.close()
        out["setup_s"] = setup_s
        out.setdefault("metrics", {})["peak_rss_mb"] = metric(
            peak_rss_mb(), "MB")
    except Exception:
        oracle.fail(traceback.format_exc())
        out = {"metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out["attempted"] = oracle.attempted
    out["failures"] = oracle.failures
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    job = json.loads(sys.argv[1])
    Path(job["result"]).write_text(json.dumps(run(job)))

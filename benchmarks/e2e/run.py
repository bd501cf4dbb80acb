"""End-to-end benchmark of the PaSE strategy-search stack.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py --seed 0                 # all workloads
    python3 benchmarks/e2e/run.py --workload search-reduce --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --out runs/a.json   # appends
    python3 benchmarks/e2e/run.py --check runs/a.json runs/b.json
    python3 benchmarks/e2e/run.py --smoke                  # < 30 s

Each workload runs in its own child process (``child.py``), started
``SETUP_REPEATS`` times: every start is timed from spawn to the end of
set-up, and only the last one goes on to measure.  Every metric is printed as
``workload metric value unit (n=samples)``; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) holding the ``BENCHMARK.json`` end-to-end metrics, or with
``--trace 1`` its per-layer metrics.  Any wrong answer makes the exit
code non-zero.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from common import BENCHMARK, HERE, SRC, WORK, metric, quartiles, verdict
from workloads import WORKLOADS

#: Child starts per workload; the median of their set-up times is setup_s.
SETUP_REPEATS = 3
#: Seconds one child may run before it is killed and the run fails.
CHILD_TIMEOUT = 170.0
#: Measured seconds per workload under --smoke.
SMOKE_SECONDS = 1.0
#: Runs each side of --check needs.
MIN_CHECK_RUNS = 3


# -- the workload children -------------------------------------------------------

def _spawn(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
           measure: bool) -> dict:
    """Run one `child.py` start; on a timeout its whole process group
    (the server and its pool included) is killed."""
    fd, result = tempfile.mkstemp(dir=WORK, suffix=".json")
    os.close(fd)
    job = {"name": name, "seed": seed, "seconds": seconds, "trace": trace,
           "smoke": smoke, "measure": measure, "result": result,
           "spawned_at": time.time()}
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             json.dumps(job)], start_new_session=True)
    try:
        proc.wait(CHILD_TIMEOUT)
        return json.loads(Path(result).read_text())
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failures": [
            f"{name}: no result within {CHILD_TIMEOUT:g} s"]}
    except json.JSONDecodeError:
        return {"attempted": 1, "failures": [
            f"{name}: child died with exit code {proc.returncode}"]}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        os.unlink(result)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    repeats = 1 if smoke else SETUP_REPEATS
    children = [_spawn(name, seed, seconds, trace, smoke, i == repeats - 1)
                for i in range(repeats)]
    out = children[-1]
    out.setdefault("metrics", {})
    setups = [c["setup_s"] for c in children if "setup_s" in c]
    if setups:
        out["metrics"]["setup_s"] = metric(median(setups), "s", len(setups))
    out["attempted"] = sum(c["attempted"] for c in children)
    out["failures"] = [f for c in children for f in c["failures"]]
    return out


# -- reporting -------------------------------------------------------------------

def _lines(name: str, results: dict) -> list[str]:
    rows = []
    for group in ("metrics", "layers"):
        for key, m in sorted(results.get(group, {}).items()):
            n = f" (n={m['n']})" if "n" in m else ""
            rows.append(f"{name} {key} {m['value']:.6g} {m['unit']}{n}")
    rows.append(f"{name} attempted {results['attempted']} count")
    rows.append(f"{name} failed_frac "
                f"{len(results['failures']) / max(results['attempted'], 1):g}"
                " ratio")
    return rows


def _summary(bench: dict, results: dict[str, dict], trace: bool) -> dict:
    """The final JSON line.  Layers a workload never touches report 0."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for name, res in results.items():
        got = res.get("layers" if trace else "metrics", {})
        for m in wanted:
            if m["name"] in got:
                value = got[m["name"]]["value"]
            elif trace:
                value = 0.0
            else:
                continue
            key = m["name"] if len(results) == 1 else f"{name}/{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
    failed = sum(len(r["failures"]) for r in results.values())
    return {"correct": failed == 0,
            "attempted": max(1, sum(r["attempted"] for r in results.values())),
            "failed": failed, "metrics": metrics}


def _save(out: Path, args, results: dict[str, dict]) -> None:
    """Append this run to ``out``; spans go beside it."""
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    run = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "smoke": args.smoke, "unix_time": time.time(), "workloads": {}}
    for name, res in results.items():
        spans = res.pop("spans", None)
        if spans:
            path = out.parent / f"spans-{name}-seed{args.seed}.jsonl"
            path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                    for r in spans))
        run["workloads"][name] = res
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def check(bench: dict, path_a: str, path_b: str) -> int:
    """Compare two sets of runs metric by metric; 0 when all are ok."""
    def values(path: str) -> dict:
        runs = [r for r in json.loads(Path(path).read_text())["runs"]
                if not r["trace"] and not r["smoke"]]
        out: dict = {}
        for run in runs:
            for name, res in run["workloads"].items():
                for key, m in res.get("metrics", {}).items():
                    out.setdefault((name, key), []).append(m["value"])
        return out

    a, b = values(path_a), values(path_b)
    names = sorted({name for name, _ in a} | {name for name, _ in b})
    print(f"{'workload':<11} {'metric':<18} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'change':>8}  verdict")
    status = 0
    for name in names:
        for m in bench["end_to_end"]:
            va, vb = a.get((name, m["name"]), []), b.get((name, m["name"]), [])
            if min(len(va), len(vb)) < MIN_CHECK_RUNS:
                result, cols = f"too few runs ({len(va)}, {len(vb)})", ("",) * 3
            else:
                qa, qb = quartiles(va), quartiles(vb)
                result = verdict(va, vb, m["better"], m["bound"])
                cols = (f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]",
                        f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]",
                        f"{100 * (qb[1] / qa[1] - 1):+.1f}%")
            status |= result != "ok"
            print(f"{name:<11} {m['name']:<18} {cols[0]:<30} {cols[1]:<30} "
                  f"{cols[2]:>8}  {result} (bound {m['bound']:g})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives problem order, arrivals and request mix")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run (half untraced, half traced)")
    parser.add_argument("--out", type=Path,
                        help="append this run's results to a JSON file")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files of >= 3 runs each")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per workload, all checks kept")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.check:
        return check(bench, *args.check)
    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds, args.trace = SMOKE_SECONDS, 0
    elif args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    WORK.mkdir(exist_ok=True)
    # Workers, the server and its pool inherit this: temp files stay here.
    os.environ["TMPDIR"] = str(WORK)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), args.smoke)
        for row in _lines(name, results[name]):
            print(row, flush=True)
        for failure in results[name]["failures"]:
            print(f"{name} FAILED: {failure}", file=sys.stderr)
    summary = _summary(bench, results, bool(args.trace))
    if args.out is not None:
        _save(args.out, args, results)
    try:
        WORK.rmdir()
    except OSError:
        pass
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

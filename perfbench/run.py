"""Checkpoint/restore benchmark of the repro library: one workload per process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nicam-indep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and self-time tables of a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The library is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"

#: Set-ups made per run; ``setup_s`` is built from their median.
SETUP_REPEATS = 7

#: Workloads held to the paper's rate and error bands.
BANDED = ("nicam-indep", "bulk-chunked")


def _import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _peak_rss_mb(children_kb: int) -> float:
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def _same(values: list[float]) -> bool:
    return all(v == values[0] for v in values)


def load_spec() -> dict:
    """The workloads and metrics (names, units, bounds) of ``BENCHMARK.json``."""
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import layers
    from probes import Probes
    from stats import normalise, scaled_setup_seconds
    from workloads import WORKLOADS

    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # the service's socket is bound by a short relative path
    cls = WORKLOADS[name]
    setups: list[float] = []
    wl = None
    untraced: list = []
    traced: list = []
    spans: list = []
    roots: list = []
    problems: list[str] = []
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            wl = cls(workdir, seed)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)

        probes = Probes()
        start = time.perf_counter()
        i = 0
        while True:
            if trace and i % 2 == 1:
                probes.reset()
                with probes:
                    res = wl.round(probes)
                traced.append(res)
                spans.extend(probes.spans)
                roots.extend(probes.roots)
            else:
                untraced.append(wl.round(None))
            i += 1
            elapsed = time.perf_counter() - start
            whole = not trace or i % 2 == 0
            if whole and elapsed + elapsed / i > seconds:
                break
    finally:
        if wl is not None:
            wl.close()
        os.chdir(CHECKOUT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    rounds = untraced + traced
    for r in rounds:
        problems.extend(r.problems)
    ratios = [r.stored_bytes / r.raw_bytes for r in rounds]
    errs = [statistics.fmean(r.rel_errs or [0.0]) * 100.0 for r in rounds]
    if not _same(ratios):
        problems.append(f"stored bytes differ between rounds: {ratios}")
    if not _same(errs):
        problems.append(f"restore errors differ between rounds: {errs}")
    if name in BANDED:
        for problem in (
            checks.check_band("stored_ratio", ratios[0], *checks.RATIO_BAND),
            checks.check_band(
                "mean_rel_err_pct", errs[0], 0.0, checks.MAX_MEAN_REL_ERR_PCT
            ),
        ):
            if problem:
                problems.append(problem)

    if trace:
        values, tables = layers.compute(spans, roots, traced, untraced)
        values["raw.setup_s"] = statistics.median(setups)
        lines, table_problems = layers.render_tables(tables)
        problems.extend(table_problems)
        for line in lines:
            print(line)
    else:
        ck = normalise(
            [t for r in rounds for t in r.ckpt_s],
            [t for r in rounds for t in r.ckpt_ref_s],
        )
        rs = normalise(
            [t for r in rounds for t in r.restore_s],
            [t for r in rounds for t in r.restore_ref_s],
        )
        refs = [t for r in rounds for t in (*r.ckpt_ref_s, *r.restore_ref_s)]
        values = {
            "setup_s": scaled_setup_seconds(setups, refs),
            "ckpt_p50_ref": statistics.median(ck) if ck else 0.0,
            "restore_p50_ref": statistics.median(rs) if rs else 0.0,
            "stored_ratio": ratios[0],
            "mean_rel_err_pct": errs[0],
            "peak_rss_mb": _peak_rss_mb(wl.children_hwm_kb),
        }
        print(
            f"{name}: {len(rounds)} rounds, {len(ck)} checkpoint samples, "
            f"{len(rs)} restore samples, set-ups {[round(s, 3) for s in setups]} s, "
            f"median reference op {1e3 * statistics.median(refs):.1f} ms"
        )
    specs = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError(f"computed metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_all(spec: dict, args: argparse.Namespace) -> dict:
    """Each workload in a process of its own; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    if args.workload == "all":
        result = run_all(spec, args)
    else:
        result = run_workload(
            spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness and comparison runs of the benchmark.

Run one workload K times, each with another seed, and report every
metric's median, quartiles and spread against its bound in
``BENCHMARK.json``; then run the first seed once more and require the
same stored ratio and restore error as its first run::

    python3 perfbench/steady.py --workload nicam-indep --runs 10

Alternate two checkouts pair by pair (which side runs first alternates
too) and apply the rule for claiming a gain: the change wins at least
nine tenths of the pairs and the medians differ by more than the
parent's interquartile distance; every other metric must not be worse
than the parent's median by more than its bound::

    python3 perfbench/steady.py --workload nicam-indep --runs 10 \\
        --parent ../parent-checkout --change .

Paths name checkouts; each is run with its own ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import claim_gain, quartiles, relative_spread  # noqa: E402

#: Metrics that must read exactly the same on every run of one seed: the
#: stored bytes and restore errors depend on the inputs alone.
EXACT = ("stored_ratio", "mean_rel_err_pct")


def load_spec(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def metric_specs(spec: dict, trace: int) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def summarise(results: list[dict], specs: dict[str, dict]) -> tuple[list[str], bool]:
    lines = []
    steady = True
    for name, m in specs.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = relative_spread(values)
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            fits = spread <= bound
            steady = steady and fits
            verdict = f"bound {bound:<5} {'ok' if fits else 'WIDE'}"
            if fits and spread > bound / 3:
                verdict += " (over a third of the bound)"
        lines.append(
            f"  {name:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"spread {100 * spread:6.2f} % {verdict}"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"  failed share per run: {sorted(shares)}")
    correct = all(r["correct"] for r in results)
    lines.append(f"  all runs correct: {correct}")
    return lines, steady and correct and len(shares) == 1


def same_seed_problems(first: dict, again: dict) -> list[str]:
    """Metrics that should repeat exactly on one seed but did not."""
    return [
        f"{name}: {first['metrics'][name]['value']!r} then "
        f"{again['metrics'][name]['value']!r} on the same seed"
        for name in EXACT
        if name in first["metrics"]
        and first["metrics"][name]["value"] != again["metrics"][name]["value"]
    ]


def compare(
    parent: list[dict], change: list[dict], specs: dict[str, dict]
) -> tuple[list[str], bool]:
    lines = []
    ok = True
    for name, m in specs.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        verdict = claim_gain(p, c, m["better"])
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (verdict["change_median"] - verdict["parent_median"])
        bound = m.get("bound")
        regressed = bound is not None and worse > bound * abs(verdict["parent_median"])
        ok = ok and not regressed
        tag = "REGRESSION" if regressed else ("gain" if verdict["claimed"] else "no claim")
        lines.append(
            f"  {name:<32} parent {verdict['parent_median']:<12.6g} change "
            f"{verdict['change_median']:<12.6g} wins {verdict['wins']}/{verdict['pairs']} "
            f"parent iqr {verdict['parent_iqr']:<10.4g} {tag}"
        )
    p_share = sum(r["failed"] for r in parent) / sum(r["attempted"] for r in parent)
    c_share = sum(r["failed"] for r in change) / sum(r["attempted"] for r in change)
    lines.append(f"  failed share: parent {p_share:.6g} change {c_share:.6g}")
    return lines, ok and c_share <= p_share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)

    change_root = args.change.resolve()
    spec = load_spec(change_root)
    seconds = args.seconds or spec["run_seconds"]
    specs = metric_specs(spec, args.trace)
    seeds = [args.seed0 + i for i in range(args.runs)]

    if args.parent is None:
        results = [
            run_once(change_root, args.workload, s, seconds, args.trace) for s in seeds
        ]
        lines, ok = summarise(results, specs)
        again = run_once(change_root, args.workload, seeds[0], seconds, args.trace)
        repeats = same_seed_problems(results[0], again)
        lines.append(f"  seed {seeds[0]} run again: {', '.join(repeats) or 'identical'}")
        ok = ok and not repeats
        print(f"{args.workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
    else:
        parent_root = args.parent.resolve()
        parent, change = [], []
        for i, s in enumerate(seeds):
            order = [(parent_root, parent), (change_root, change)]
            if i % 2:
                order.reverse()
            for root, out in order:
                out.append(run_once(root, args.workload, s, seconds, args.trace))
        lines, ok = compare(parent, change, specs)
        print(f"{args.workload}: {args.runs} pairs, parent {parent_root}, change {change_root}")
    for line in lines:
        print(line)
    print(json.dumps({"workload": args.workload, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run sets of benchmark runs and check that they are steady.

    python3 perfbench/sets.py --seeds 1-10 --label a
    python3 perfbench/sets.py --seeds 11-20 --label b --compare a

One set runs ``run.py`` for ``run_seconds`` once per seed on every
workload of ``BENCHMARK.json``; each seed also shuffles the order in which the
workloads interleave within its round.  The set checks that every seed
gave the same verdict bytes, and for every end-to-end metric it reports
the median of the runs and their spread, the distance between the first
and third quartile as a share of the median, and marks a spread above
the metric's bound or above a third of it.
With ``--compare`` it marks every metric whose median is worse than the
earlier set's by more than the bound.  The record, with a calibration loop
timed at the start and end of the set, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys

from run import RESULTS, ROOT, calibrate, record_path


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--label", required=True)
    parser.add_argument("--compare", help="label of an earlier set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {"label": args.label, "seconds": seconds,
              "calibration_start_s": calibrate(), "runs": []}
    # verdict JSON (without ``elapsed``) seen per workload, over all seeds
    verdicts: dict[str, set[str]] = {name: set() for name in names}
    for seed in parse_seeds(args.seeds):
        order = names[:]
        random.Random(seed).shuffle(order)
        for name in order:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record["runs"].append({"workload": name, "seed": seed, **result})
            run_record = json.loads(record_path(name, seed, False).read_text())
            verdicts[name].update(run_record["verdicts"])
            print(f"seed {seed:3d} {name:22s} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}"
                             for k, v in result["metrics"].items()), flush=True)
    record["calibration_end_s"] = calibrate()

    earlier = None
    if args.compare:
        earlier = json.loads((RESULTS / f"set-{args.compare}.json").read_text())
    ok = all(r["correct"] for r in record["runs"])
    summary = {}
    for name in names:
        if len(verdicts[name]) != 1:
            print(f"{name:22s} VERDICTS DIFFER ACROSS SEEDS: {len(verdicts[name])}")
            ok = False
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in record["runs"]
                      if r["workload"] == name]
            med, spr = spread(values)
            flags = []
            if spr > bound:
                flags.append("SPREAD>BOUND")
                ok = False
            elif spr > bound / 3:
                flags.append("spread>bound/3")
            if earlier:
                before = earlier["summary"][f"{name}/{metric}"]["median"]
                worse = (med - before) / before
                if better[metric] == "higher":
                    worse = -worse
                if worse > bound:
                    flags.append(f"WORSE{worse:+.3f}")
                    ok = False
            summary[f"{name}/{metric}"] = {"median": med, "spread": spr,
                                           "bound": bound, "values": values}
            print(f"{name:22s} {metric:12s} median {med:10.5f} spread "
                  f"{spr:.4f} bound {bound} {' '.join(flags)}")
    record["summary"] = summary
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"set-{args.label}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"calibration {record['calibration_start_s']:.4f} s -> "
          f"{record['calibration_end_s']:.4f} s; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare benchmark records written by ``run.py --record``.

Usage: python3 pipebench/compare.py BASE.json NEW.json

Each file holds one record or a list of them. Records pair up by
(workload, seed, trace). The comparison is refused (exit 1) when a pair
ran on different kernel backends, since the numpy and compiled kernels
differ several-fold in speed. For each metric it prints both values and
the change as a share of the base; end-to-end metrics are also judged
against the bound in BENCHMARK.json. A changed report fingerprint is
printed, not judged: it means the selection output changed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    records = doc if isinstance(doc, list) else [doc]
    return {(r["workload"], r["seed"], r["trace"]): r for r in records}


def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative worsening of ``new`` against ``base`` (negative = better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    keys = sorted(base.keys() & new.keys())
    for key in keys:
        backends = (base[key]["env"]["kernel_backend"],
                    new[key]["env"]["kernel_backend"])
        if backends[0] != backends[1]:
            print(f"{key}: refusing to compare kernel backend "
                  f"{backends[0]!r} with {backends[1]!r}", file=sys.stderr)
            return 1
    regressions = 0
    for key in keys:
        a, b = base[key], new[key]
        print(f"== {key[0]} seed {key[1]} trace {key[2]}: "
              f"{a['env']['git_sha'][:12]} -> {b['env']['git_sha'][:12]}")
        if a["fingerprint"] != b["fingerprint"]:
            print("   report fingerprint changed")
        for name in sorted(a["metrics"].keys() & b["metrics"].keys()):
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            unit = a["metrics"][name]["unit"]
            change = (vb - va) / va if va else float("nan")
            verdict = ""
            if name in E2E and va:
                over = worse_by(E2E[name], va, vb) > E2E[name]["bound"]
                regressions += over
                verdict = "REGRESSION" if over else "within bound"
            print(f"   {name:<34} {va:>12.6g} -> {vb:>12.6g} {unit:<6} "
                  f"{100 * change:+7.1f}% {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two BENCH_*.json files from the bench harnesses and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json

Every non-empty list section the candidate carries is compared with the
same section of the baseline.  Entries are matched on
bench_merge.identity() — their non-float (config) values — and every float
field of a matched entry is printed side by side with its
candidate-over-baseline ratio.  The run fails (exit 1, so it can gate CI)
when a seconds_per_call is more than 10% slower than the baseline, or when
an entry the baseline has in a compared section is missing from the
candidate.

No section is named here, so a bench that adds a section needs no change to
this script.  Acceptance ratios (SIMD speedup, expression overhead,
checksum cost, cache, batch and scheduler overlap) are checked and warned
about by the bench binary that measures them, not here.
"""

import argparse
import sys

from bench_merge import identity, load

GATED_FIELD = "seconds_per_call"
THRESHOLD = 0.10


def label(section, entry):
    if not isinstance(entry, dict):
        return f"{section} {entry}"
    config = (str(v) for v in entry.values()
              if not isinstance(v, float) and v != "")
    return " ".join([section, *config])


def measurements(entry):
    """An entry's float fields; plain-string entries carry none."""
    if not isinstance(entry, dict):
        return {}
    return {k: v for k, v in entry.items() if isinstance(v, float)}


def compare_section(section, base_entries, cand_entries, regressions, missing):
    candidate = {identity(e): e for e in cand_entries}
    matched = set()
    for base in base_entries:
        key = identity(base)
        name = label(section, base)
        cand = candidate.get(key)
        if cand is None:
            print(f"{name:<64} (missing in candidate)")
            missing.append(name)
            continue
        matched.add(key)
        cand_values = measurements(cand)
        for field, base_value in measurements(base).items():
            cand_value = cand_values.get(field)
            if cand_value is None:
                continue
            ratio = cand_value / base_value if base_value else float("inf")
            flag = ""
            if field == GATED_FIELD and ratio > 1.0 + THRESHOLD:
                flag = "  <-- REGRESSION"
                regressions.append((name, ratio))
            print(f"{name:<64} {field:<20} {base_value:>11.4g} "
                  f"{cand_value:>11.4g} {ratio:>7.2f}x{flag}")
    for key, cand in candidate.items():
        if key not in matched:
            print(f"{label(section, cand):<64} (new in candidate)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    regressions, missing = [], []
    print(f"{'entry':<64} {'field':<20} {'baseline':>11} {'candidate':>11} "
          f"{'ratio':>8}")
    for section, entries in candidate.items():
        if isinstance(entries, list) and entries:
            compare_section(section, baseline.get(section, []), entries,
                            regressions, missing)

    if missing:
        print(f"\n{len(missing)} baseline entry(ies) missing from the "
              "candidate:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} regression(s) above {THRESHOLD:.0%}:",
              file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x slower", file=sys.stderr)
    if missing or regressions:
        return 1
    print(f"\nno regressions above {THRESHOLD:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

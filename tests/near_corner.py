"""Factorize the near-corner family and compare two runs set by set.

The family is 5900 inputs at the edge of the factorization contract: for
each seed from 100 to 158, the 100 matrices of
``test_polytope._near_corner_matrices(default_rng(seed), 100)``, each
mapped by ``default_rng([seed, index]).uniform(size=(r + 3, r))``. A set
*meets* the contract when ``V >= 0`` and ``residual_inf <= 1e-8 (1 + max
A)``; otherwise it is *over* when ``factorize`` returns, and *raise* when
it raises.

Run from the repository root (about 35 s on two cores)::

    PYTHONPATH=src python tests/near_corner.py --out new.json
    PYTHONPATH=src python tests/near_corner.py --out new.json --against old.json

``--out`` writes one record per set: its outcome, the error type and stage
when it raised, ``vertex_source_columns`` and the residual over the bound
when it returned. ``--against`` compares with an earlier ``--out`` file and
prints every set whose outcome got worse, whose error changed or whose
source columns changed; the exit status is 1 when there is such a set.
Sets within 1% of the bound may flip under another BLAS, so compare runs
made on the same machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from latticenmf import FactorizationError, factorize

from test_polytope import _near_corner_matrices

SEEDS = range(100, 159)
SETS_PER_SEED = 100
OUTCOMES = ("meet", "over", "raise")


def near_corner_inputs(seed: int):
    """The family's matrices for one seed, in index order."""
    for index, x in enumerate(_near_corner_matrices(np.random.default_rng(seed), SETS_PER_SEED)):
        r = x.shape[0]
        yield np.random.default_rng([seed, index]).uniform(size=(r + 3, r)) @ x


def record(a: np.ndarray) -> dict:
    """The outcome of ``factorize(a)`` against the contract."""
    try:
        result = factorize(a)
    except (FactorizationError, ValueError) as err:
        stage = err.stage if isinstance(err, FactorizationError) else None
        return {"outcome": "raise", "error": f"{type(err).__name__}[{stage}]"}
    over_bound = result.residual_inf / (1e-8 * (1.0 + float(a.max())))
    meets = over_bound <= 1.0 and result.V.min() >= 0.0
    return {
        "outcome": "meet" if meets else "over",
        "vertex_source_columns": list(result.vertex_source_columns),
        "residual_over_bound": over_bound,
    }


def run_family() -> dict[str, dict]:
    return {
        f"{seed}/{index}": record(a)
        for seed in SEEDS
        for index, a in enumerate(near_corner_inputs(seed))
    }


def summary(records: dict[str, dict]) -> str:
    outcomes = Counter(rec["outcome"] for rec in records.values())
    errors = Counter(rec["error"] for rec in records.values() if "error" in rec)
    line = f"{len(records)} sets: " + " / ".join(f"{outcomes[o]} {o}" for o in OUTCOMES)
    return line + "".join(f"\n  {n} {error}" for error, n in sorted(errors.items()))


def _set_order(key: str) -> tuple[int, int]:
    seed, index = key.split("/")
    return int(seed), int(index)


def differences(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per set that got worse, changed its error or changed its
    source columns."""
    lines = []
    for key in sorted(old.keys() | new.keys(), key=_set_order):
        before, after = old.get(key), new.get(key)
        if before is None or after is None:
            lines.append(f"{key}: only in the {'new' if before is None else 'old'} run")
            continue
        reasons = []
        if OUTCOMES.index(after["outcome"]) > OUTCOMES.index(before["outcome"]):
            reasons.append(f"{before['outcome']} -> {after['outcome']}")
        if before.get("error") != after.get("error"):
            reasons.append(f"error {before.get('error')} -> {after.get('error')}")
        if before.get("vertex_source_columns") != after.get("vertex_source_columns"):
            reasons.append(
                f"source columns {before.get('vertex_source_columns')} -> "
                f"{after.get('vertex_source_columns')}"
            )
        if reasons:
            ratios = [rec.get("residual_over_bound") for rec in (before, after)]
            ratio = " -> ".join("-" if x is None else f"{x:.3g}" for x in ratios)
            lines.append(f"{key}: {'; '.join(reasons)} (residual/bound {ratio})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the per-set records to this JSON file")
    parser.add_argument("--against", help="compare with the records of an earlier run")
    args = parser.parse_args(argv)

    records = run_family()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
    if not args.against:
        print(summary(records))
        return 0
    with open(args.against) as fh:
        old = json.load(fh)
    print("old", summary(old))
    print("new", summary(records))
    changed = differences(old, records)
    print(f"{len(changed)} sets worse or changed")
    for line in changed:
        print(" ", line)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

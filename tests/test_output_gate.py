"""Output gate: the decisions of ``factorize`` on 230 fixed inputs.

The inputs are the 2-D arrays of ``tests/data.py`` and every bench input of
seeds 1-3 (``bench/workloads.py``, imported read-only). For each one,
``output_gate.json`` records ``p``, ``nodes``, ``nodes_stripped``,
``vertex_source_columns`` and the warnings, or the error raised. A change
that alters any of them changes the library's results and must say so.
Every returned result must also meet its contract: ``F >= 0``, ``V >= 0``
and the residual within ``tol.recon * (1 + max|A|)``.

A change to ``bench/workloads.py`` or ``bench/golden.py`` that alters the
generated inputs must regenerate the snapshot, from the code before any
other change, by running this file:

    PYTHONPATH=src python tests/test_output_gate.py
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import data
from latticenmf import FactorizationError, Tolerances, factorize, residual_inf

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "output_gate.json"
SEEDS = (1, 2, 3)


def gate_inputs() -> dict[str, np.ndarray]:
    """The named inputs, in a fixed order."""
    inputs = {
        f"data:{name}": value
        for name, value in vars(data).items()
        if isinstance(value, np.ndarray) and value.ndim == 2
    }
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for case in workloads.make_cases(workload, seed):
                inputs[f"bench:{workload}:{seed}:{case.name}"] = case.a
    return inputs


def outcome(a) -> tuple[dict, object]:
    """The recorded decisions on ``a``, and the result (None if it raised)."""
    try:
        result = factorize(a)
    except (FactorizationError, ValueError) as err:
        return {"error": f"{type(err).__name__}[{getattr(err, 'stage', None)}]"}, None
    record = {
        "p": result.p,
        "nodes": list(result.nodes),
        "nodes_stripped": list(result.nodes_stripped),
        "vertex_source_columns": list(result.vertex_source_columns),
        "warnings": list(result.warnings),
    }
    return record, result


@pytest.fixture(scope="module")
def outcomes():
    return {name: (a, *outcome(a)) for name, a in gate_inputs().items()}


def test_the_gate_has_230_inputs(outcomes):
    assert len(outcomes) == 230


def test_decisions_match_the_snapshot(outcomes):
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert list(outcomes) == list(expected)
    changed = [name for name, (_, record, _) in outcomes.items() if record != expected[name]]
    assert not changed, f"{len(changed)} inputs changed, first {changed[0]}"


def test_every_result_meets_its_contract(outcomes):
    recon = Tolerances().recon
    for name, (a, _, result) in outcomes.items():
        if result is None:
            continue
        assert result.F.min() >= 0.0, name
        assert result.V.min() >= 0.0, name
        residual = residual_inf(a, result.F, result.V)
        assert residual <= recon * (1.0 + float(np.abs(a).max())), name


if __name__ == "__main__":
    records = {name: outcome(a)[0] for name, a in gate_inputs().items()}
    SNAPSHOT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {SNAPSHOT}")

"""The six hand-worked matrices of the test suite, with their expected results.

The matrices are read from ``tests/data.py`` of the checkout, so there is one
copy of them. This module adds only what the benchmark checks for each: the
inner dimension ``p`` and the 0-based first column attaining each vertex
share. The self-tests re-derive the vertex columns with an independent LP
oracle.
"""

import importlib.util
from pathlib import Path

import numpy as np

DATA_FILE = Path(__file__).resolve().parent.parent / "tests" / "data.py"

# name -> (attribute of tests/data.py, p, vertex columns)
GOLDEN = {
    "minlat_6x6": ("MINLAT_6X6", 4, (0, 2, 4, 5)),
    "sublat_8x10": ("SUBLAT_8X10", 5, (0, 1, 3, 4, 5)),
    "rank2_2x16": ("RANK2_ROWS", 2, (7, 15)),
    "minlat_8x11": ("MINLAT_8X11", 7, (0, 1, 2, 3, 4, 5, 9)),
    "nrf_5x4": ("NRF_5X4", 3, (0, 1, 3)),
    "diagblock_6x6": ("DIAGBLOCK_6X6", 3, (1, 3, 4)),
}


def load_test_data():
    """``tests/data.py`` as a module, without putting ``tests`` on the path."""
    spec = importlib.util.spec_from_file_location("latticenmf_test_data", DATA_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # FileNotFoundError when the file is missing
    return module


def golden_matrices():
    """``(name, A, p, vertex_columns)`` for each golden matrix."""
    data = load_test_data()
    return [
        (name, np.array(getattr(data, attr), dtype=float), p, frozenset(cols))
        for name, (attr, p, cols) in GOLDEN.items()
    ]

"""Seeded, planted inputs for the benchmark workloads.

A planted matrix is built so that its expected inner dimension ``p`` and its
vertex columns follow from the construction alone, without running
latticenmf:

1. ``d`` vertex shares sit on a sphere around the barycenter of the
   probability simplex in R^r, inside the simplex. Points on a sphere are all
   extreme, so each is a vertex of the hull.
2. ``mu - d`` interior shares are strict Dirichlet mixes of all vertices,
   hence in the relative interior of their hull.
3. Each nonzero column of ``A`` is ``W @ share * scale`` with a nonnegative
   ``W`` (n x r, generic rank r) and a positive scale. The share of a column
   of the basic rows ``W_b`` is a projective image of the planted share, and
   projective maps with a positive denominator keep extreme points extreme
   and interior points interior. So ``p = d``, and the vertex columns are the
   first columns carrying each vertex share.

The library only ever receives the generated arrays or files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from golden import golden_matrices

# Entries of A span roughly [1, 1e3]: well above the library's absolute node
# threshold (1e-6), so zeroing a genuinely positive basis entry is rare.
SCALE_RANGE = (50.0, 500.0)


@dataclass(frozen=True, eq=False)
class Case:
    """One input with its expected result.

    ``vertex_columns`` are 0-based columns of ``a``: the first column that
    carries each vertex share. ``fmt`` and ``report`` are used only when the
    case is written to a file for the command line.
    """

    name: str
    a: np.ndarray
    p: int
    vertex_columns: frozenset[int]
    fmt: str = "csv"
    report: str = "json"


def planted_shares(rng: np.random.Generator, r: int, d: int, mu: int) -> np.ndarray:
    """``mu`` distinct points of the simplex in R^r whose hull has exactly the
    first ``d`` of them as vertices."""
    if not (2 <= r <= d <= mu) or (r == 2 and d != 2):
        raise ValueError(f"need 2 <= r <= d <= mu and d == 2 when r == 2, got {r=} {d=} {mu=}")
    directions = rng.standard_normal((d, r))
    directions -= directions.mean(axis=1, keepdims=True)
    if r == 2:
        directions = np.array([[1.0, -1.0], [-1.0, 1.0]])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # 0.8 of the radius of the sphere inscribed in the simplex keeps every
    # share strictly positive.
    radius = 0.8 / np.sqrt(r * (r - 1))
    vertices = 1.0 / r + radius * directions
    weights = rng.dirichlet(np.full(d, 2.0), size=mu - d)
    return np.vstack([vertices, weights @ vertices])


def planted_matrix(
    rng: np.random.Generator,
    name: str,
    n: int,
    m: int,
    r: int,
    d: int,
    mu: int,
    zero_frac: float = 0.0,
    fmt: str = "csv",
    report: str = "json",
) -> Case:
    """An n x m planted matrix: ``mu`` distinct shares (``d`` of them vertices)
    spread over the nonzero columns, every share used at least once, and
    ``round(zero_frac * m)`` zero columns."""
    shares = planted_shares(rng, r, d, mu)
    n_zero = round(zero_frac * m)
    if m - n_zero < mu:
        raise ValueError(f"{m - n_zero} nonzero columns cannot carry {mu} distinct shares")
    pattern = np.concatenate([np.arange(mu), rng.integers(0, mu, size=m - n_zero - mu)])
    rng.shuffle(pattern)
    columns = np.full(m, -1)
    nonzero = np.sort(rng.permutation(m)[: m - n_zero])
    columns[nonzero] = pattern

    w = rng.uniform(0.0, 1.0, size=(n, r))
    scales = rng.uniform(*SCALE_RANGE, size=m)
    a = np.zeros((n, m))
    a[:, nonzero] = (w @ shares[pattern].T) * scales[nonzero]
    vertex_columns = frozenset(int(np.flatnonzero(columns == k)[0]) for k in range(d))
    return Case(name, a, d, vertex_columns, fmt, report)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "factorize" or "cli"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hull-interior",
            "factorize",
            "every column a distinct share (mu = m, 12 planted vertices): dedup, hull LPs "
            "and expansion LPs are nearly the whole call",
        ),
        Workload(
            "repeated-shares",
            "factorize",
            "wide matrix of 16 repeated share patterns plus 5% zero columns: expansion "
            "LPs per column dominate, the hull pass hardly runs",
        ),
        Workload(
            "cli-batch",
            "cli",
            "cli.run over CSV/MatrixMarket files with JSON/text reports: golden, small and "
            "mid-size planted inputs; file I/O, the rank-2 path, per-call overhead",
        ),
    )
}

# Inputs per factorize workload. Each is called once per pass, and the
# call-time metrics use each input's median call, so fewer inputs give each
# more calls in a run (about 20 in 38 s on both).
INPUTS = {"hull-interior": 20, "repeated-shares": 12}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The inputs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if workload == "hull-interior":
        return [
            planted_matrix(rng, f"hull-{i}", n=120, m=100, r=5, d=12, mu=100)
            for i in range(INPUTS[workload])
        ]
    if workload == "repeated-shares":
        return [
            planted_matrix(rng, f"repeated-{i}", n=40, m=1000, r=4, d=8, mu=16, zero_frac=0.05)
            for i in range(INPUTS[workload])
        ]
    if workload == "cli-batch":
        return cli_cases(rng)
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def cli_cases(rng: np.random.Generator) -> list[Case]:
    """The 6 golden matrices, 2 each of small planted rank-2, sublattice and
    minimal-lattice matrices, and 14 each of mid-size repeated-shares and
    rank-2 matrices: 40 files. Formats and report styles alternate so every
    combination appears.

    Mid-size files are the majority because the time of a tiny call is
    mostly interpreter and file-system overhead, which on a shared machine
    drifts far more from run to run than computation does.
    """
    cases = [Case(name, a, p, cols) for name, a, p, cols in golden_matrices()]
    for i in range(2):
        cases += [
            planted_matrix(rng, f"rank2-small-{i}", n=5, m=12, r=2, d=2, mu=12),
            planted_matrix(rng, f"sublattice-small-{i}", n=7, m=12, r=4, d=4, mu=4),
            planted_matrix(rng, f"minlat-small-{i}", n=6, m=10, r=3, d=5, mu=8),
        ]
    for i in range(14):
        cases += [
            planted_matrix(rng, f"repeated-mid-{i}", n=30, m=300, r=4, d=8, mu=16, zero_frac=0.05),
            planted_matrix(rng, f"rank2-mid-{i}", n=20, m=150, r=2, d=2, mu=150),
        ]
    styles = [("csv", "json"), ("mtx", "text"), ("mtx", "json"), ("csv", "text")]
    return [
        Case(c.name, c.a, c.p, c.vertex_columns, *styles[i % len(styles)])
        for i, c in enumerate(cases)
    ]

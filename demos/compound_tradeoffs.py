#!/usr/bin/env python3
"""Worst-case Shannon limits as the ambiguity radius grows.

Prints the scalar compound capacity curve family (radius 0 recovers the
known-noise Shannon capacity; larger radii cost power), extracts a
worst-case source covariance in two dimensions, and cross-checks the
solver against the exhaustive grid oracle.
"""

import numpy as np

from robust_shannon import (
    BwBall,
    CompoundRdfRequest,
    SpdMatrix,
    brute_force_compound,
    bw_distance,
    compound_rdf,
    compound_rdf_scalar,
    gaussian_rdf,
    sweep_compound,
)


def scalar_capacity_family():
    print("Scalar compound capacity, nominal noise N(0,1)")
    radii = (0.0, 0.5, 1.0, 2.0)
    budgets = (0.0, 1.0, 2.0, 5.0, 10.0)
    grid = [(r, b) for r in radii for b in budgets]
    points = sweep_compound("capacity", SpdMatrix.from_diag([1.0]), grid)
    header = "  B:" + "".join(f"{b:>10.1f}" for b in budgets)
    print(header)
    for r in radii:
        row = [p.value_nats for p in points if p.r == r]
        print(f"r={r:<4}" + "".join(f"{v:>10.4f}" for v in row))
    print("Each row is the Shannon capacity of N(0, (1+r)^2): growing the")
    print("ambiguity radius acts exactly like inflating the noise deviation.")
    print()


def scalar_rdf_inflation():
    print("Scalar compound RDF, nominal source N(0,1), D = 0.25")
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        value = compound_rdf_scalar(1.0, r, 0.25)
        print(f"  r={r:4.2f}  rate={value:.6f} nats")
    print()


def worst_case_extraction():
    center = SpdMatrix.from_diag([1.0, 4.0])
    ball = BwBall(center, 0.5)
    result = compound_rdf(CompoundRdfRequest(ball, 1.0))
    print("Worst-case source for eigenvalues (1,4), radius 0.5, D = 1")
    print(f"  nominal rate    = {gaussian_rdf(center, 1.0):.6f} nats")
    print(f"  worst-case rate = {result.value_nats:.6f} nats "
          f"({result.diagnostics.solver_path}, {result.diagnostics.iterations} iterations)")
    print("  worst-case covariance:")
    print(np.array_str(result.worst_case_cov.entries, precision=4, suppress_small=True))
    print(f"  distance from nominal: {bw_distance(center, result.worst_case_cov):.6f}")
    print("The adversary spends the radius unevenly: the weak eigenmode gains")
    print("proportionally more variance because the rate is more sensitive there.")
    print()


def grid_cross_check():
    center = SpdMatrix.from_diag([1.0, 4.0])
    solver = compound_rdf(CompoundRdfRequest(BwBall(center, 0.5), 1.0)).value_nats
    grid = brute_force_compound("rdf", center, 0.5, 1.0, 1e-3)
    print("Exhaustive-grid cross-check (step 1e-3 in deviation space)")
    print(f"  solver {solver:.6f} vs grid {grid:.6f}  (gap {abs(solver - grid):.2e})")
    print("The grid slightly underestimates the supremum at finite resolution;")
    print("the solver value sits just above it, as it should.")


def main():
    scalar_capacity_family()
    scalar_rdf_inflation()
    worst_case_extraction()
    grid_cross_check()


if __name__ == "__main__":
    main()

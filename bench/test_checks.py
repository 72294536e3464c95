"""Self-tests of the benchmark's checks: each accepts an output known to be
right and rejects a deliberately wrong one, so a check that accepts
everything fails here.

    python3 bench/test_checks.py        (or: python3 -m pytest bench)
"""

import sys

import numpy as np

import checks

CANONICAL_NODES = ((0.0, 0.0), (0.5, 0.5))
CANONICAL_TARGETS = (0.0, 0.7)


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def test_disk_norm():
    checks.check_disk_norm(1.0, 1.0)
    checks.check_disk_norm(1.5 + 1e-9, 1.5)
    assert rejects(checks.check_disk_norm, 1.0 + 1e-8, 1.0)


def test_extremal():
    checks.check_extremal(True, 1.0)
    checks.check_extremal(False, 0.5)
    assert rejects(checks.check_extremal, True, 0.5)


def test_blaschke():
    pts = checks.probe_points(8, np.random.default_rng(0))
    zeros, c = (0.3 + 0.1j, -0.5j), np.exp(0.7j)
    checks.check_blaschke(zeros, c, 0.75, 0.75, zeros, c, pts)
    assert rejects(checks.check_blaschke, zeros, c, 0.75 + 1e-6, 0.75, zeros, c, pts)
    assert rejects(checks.check_blaschke, (0.3 + 0.1j, -0.5001j), c, 0.75, 0.75,
                   zeros, c, pts)


def test_blaschke_derivative():
    zeros, c, z, h = (0.3 + 0.1j, -0.5j), np.exp(0.7j), 0.2 - 0.4j, 1e-6
    fd = (checks.blaschke(zeros, c, 1.5, z + h) - checks.blaschke(zeros, c, 1.5, z - h)) / (2 * h)
    assert abs(fd - checks.blaschke_derivative(zeros, c, 1.5, z)) < 1e-8


def test_poly_norm():
    checks.check_poly_norm(1.4 + 5e-6, 1.4, 2, None)
    checks.check_poly_norm(1.0, 1.0, 3, "schur-agler-upper-bound")
    assert rejects(checks.check_poly_norm, 1.4 + 2e-5, 1.4, 2, None)
    assert rejects(checks.check_poly_norm, 1.4 - 1e-6, 1.4, 2, None)
    assert rejects(checks.check_poly_norm, 1.0, 1.0, 3, None)


def test_dual_kernel():
    # two points, coordinate blocks [[1, k], [k, 0.75]] stay PSD for
    # k^2 <= 0.75, the target block [[1, k], [k, 0.51]] is not for k^2 > 0.51
    K = np.array([[1.0, 0.8], [0.8, 1.0]])
    checks.check_dual_kernel(K, CANONICAL_NODES, CANONICAL_TARGETS, 1.0)
    bad = K.copy()
    bad[1, 1] = 1.1
    assert rejects(checks.check_dual_kernel, bad, CANONICAL_NODES, CANONICAL_TARGETS, 1.0)
    assert rejects(checks.check_dual_kernel, K, CANONICAL_NODES, CANONICAL_TARGETS, 1.5)


def test_decomposition():
    # zero targets on d = 1: Gamma is the Szego kernel 1 / (1 - l conj(l'))
    nodes, targets = ((0.0,), (0.5,)), (0.0, 0.0)
    gamma = 1.0 / (1.0 - np.outer([0.0, 0.5], [0.0, 0.5]))
    checks.check_decomposition([gamma], nodes, targets, 1.0)
    assert rejects(checks.check_decomposition, [gamma - 1.5 * np.eye(2)], nodes, targets, 1.0)
    assert rejects(checks.check_decomposition, [gamma + 1e-6], nodes, targets, 1.0)


def test_exg1():
    checks.check_exg1(0.9, "violation_detected", 0.95, 0.99, 1.0, 0.3)
    assert rejects(checks.check_exg1, 0.9, "inconclusive", 0.95, 0.99, 1.0, 0.3)
    assert rejects(checks.check_exg1, 0.9, "violation_detected", 0.95, 0.99, 1.001, 0.3)
    assert rejects(checks.check_exg1, 0.9, "violation_detected", 0.95, 0.95 + 1e-7, 1.0, 0.3)


def test_retract_verdict():
    checks.check_retract_verdict("retract_graph", "retract_graph")
    assert rejects(checks.check_retract_verdict, "not_retract", "retract_graph")


def test_graph_values():
    h = {(1, 0): 0.5, (0, 1): 0.3j, (1, 1): -0.1}
    base = np.array([[0.2, 0.1j], [-0.4, 0.3], [0.5j, -0.5]])
    values = 0.5 * base[:, 0] + 0.3j * base[:, 1] - 0.1 * base[:, 0] * base[:, 1]
    checks.check_graph_values(base, values, h)
    assert rejects(checks.check_graph_values, base, values + 1e-9, h)


def test_escape_witness():
    plane = {(0, 0, 1): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0}
    checks.check_escape_witness((1, 2), (0.6, 0.6j + 0.6), 1.2 + 0.6j, plane)
    checks.check_escape_witness((1, 3), (0.6, -0.6), -1.2, plane)
    assert rejects(checks.check_escape_witness, (1, 2), (0.6, 0.3), 0.9, plane)
    assert rejects(checks.check_escape_witness, (1, 2), (0.6, 0.6), 1.2 + 1e-6, plane)


def test_variety_points():
    plane = {(0, 0, 1): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0}
    pts = np.array([[0.1, 0.2j, 0.1 + 0.2j], [-0.3, 0.4, 0.1]])
    checks.check_variety_points(pts, plane)
    assert rejects(checks.check_variety_points, pts + [0, 0, 1e-8], plane)
    assert rejects(checks.check_variety_points, np.array([[0.6, 0.6, 1.2]]), plane)


def test_balanced_pair():
    checks.check_balanced_pair((0.5, 0.5), 2, 1e-9, (0.0, 0.0), (0.5, 0.5j))
    checks.check_balanced_pair((0.5, 0.5, 0.1), 2, 1e-9)
    assert rejects(checks.check_balanced_pair, (0.5, 0.4), 2, 1e-9, (0.0, 0.0), (0.5, 0.4))
    assert rejects(checks.check_balanced_pair, (0.5, 0.5), 2, 1e-9, (0.0, 0.0), (0.5, 0.4))
    assert rejects(checks.check_balanced_pair, (0.5, 0.3), 1, 1e-9)


def test_polished_torus_max():
    line = {(1, 0, 0): 1.0, (0, 1, 0): 1.0j, (0, 0, 1): -1.0}
    assert abs(checks.polished_torus_max(line, 3) - 3.0) < 1e-12
    p = {(1, 0): 1.0, (0, 1): 1.0j, (1, 1): 0.5}
    grid_value, _ = checks.torus_grid_max(p, 2, 64)
    assert checks.polished_torus_max(p, 2) >= grid_value


def test_ando_ratio():
    checks.check_ando_ratio(1.0 + 1e-7)
    assert rejects(checks.check_ando_ratio, 1.01)


def test_operator_norm():
    V = np.array([[1.0, 0.3], [0.0, 1.0]])
    nodes = ((0.5, 0.1), (-0.2, 0.4))
    coeffs = {(1, 0): 1.0, (0, 1): 2.0}
    vals = np.array([0.5 + 0.2, -0.2 + 0.8])
    norm = np.linalg.norm(V @ np.diag(vals) @ np.linalg.inv(V), 2)
    checks.check_operator_norm(V, nodes, coeffs, norm)
    assert rejects(checks.check_operator_norm, V, nodes, coeffs, norm * (1 + 1e-6))


def test_tuple_and_witness():
    V = np.eye(2)
    nodes = ((0.5, 0.1), (-0.2, 0.4))
    mats = [np.diag([0.5, -0.2]), np.diag([0.1, 0.4])]
    checks.check_tuple(mats, V, nodes)
    assert rejects(checks.check_tuple, [mats[0], mats[1] + [[0, 0.1], [0, 0]]], V, nodes)
    assert rejects(checks.check_tuple, [2 * mats[0], mats[1]], V, nodes)
    checks.check_witness(1.2, 1.4, 1.0, mats, V, nodes, (0.0, 1.2))
    assert rejects(checks.check_witness, 1.3, 1.4, 1.0, mats, V, nodes, (0.0, 1.2))
    assert rejects(checks.check_witness, 1.2, 1.1, 1.0, mats, V, nodes, (0.0, 1.2))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks passed")
    sys.exit(0)

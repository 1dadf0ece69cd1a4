import ast
from pathlib import Path

import numpy as np
import pytest

from relbranch import oracle
from relbranch.jacobi import jacobi_values
from relbranch.oracle import (
    GTBranchResult,
    compact_relative_mult,
    is_spherical,
    spherical_weight,
    su2_spherical_coefficient,
    un_branch_mult,
)
from relbranch.reps import HighestWeight


def test_un_branch_examples():
    res = un_branch_mult(HighestWeight.of(2, 0, -2), HighestWeight.of(1, -1))
    assert res.multiplicity == 1
    assert all(ok for _, ok in res.witness)
    res = un_branch_mult(HighestWeight.of(2, 0, -2), HighestWeight.of(3, 0))
    assert res.multiplicity == 0
    assert isinstance(res, GTBranchResult)


def test_un_branch_length_mismatch():
    with pytest.raises(ValueError):
        un_branch_mult(HighestWeight.of(2, 0, -2), HighestWeight.of(1))
    with pytest.raises(ValueError):
        un_branch_mult(HighestWeight.of(2, 0), HighestWeight.of(1, 0))


def test_un_branch_requires_integral_weights():
    with pytest.raises(ValueError):
        un_branch_mult(HighestWeight.of("5/2", 0, "-5/2"), HighestWeight.of(1, -1))


def test_un_branch_spherical_characterization():
    # restriction of (a,0,...,-a) contains (b,0,...,0,c) iff 0<=b<=a, -a<=c<=0
    n = 4
    for a in range(0, 5):
        lam = spherical_weight(a, n)
        for b in range(0, 5):
            for c in range(-5, 1):
                if b < abs(c):
                    continue  # not weakly decreasing
                mu = HighestWeight.of(b, *([0] * (n - 3)), c)
                got = un_branch_mult(lam, mu).multiplicity
                want = 1 if (0 <= b <= a and -a <= c <= 0) else 0
                assert got == want, (a, b, c)


def test_is_spherical():
    assert is_spherical(HighestWeight.of(3, 0, 0, -3))
    assert not is_spherical(HighestWeight.of(3, 1, 0, -4))
    assert is_spherical(HighestWeight.of(0, 0, 0, 0))
    assert not is_spherical(HighestWeight.of(3, 0, 0, -2))
    assert is_spherical(HighestWeight.of(0))


def test_compact_relative_examples():
    assert compact_relative_mult(2, 1, 4) == 1
    assert compact_relative_mult(1, 2, 4) == 0
    assert compact_relative_mult(3, 3, 5) == 1  # boundary a = b allowed
    with pytest.raises(ValueError):
        compact_relative_mult(1, 1, 2)
    with pytest.raises(ValueError):
        compact_relative_mult(-1, 0, 4)


def test_compact_relative_matches_interlacing_oracle():
    for n in (4, 5, 6):
        for a in range(0, 9):
            for b in range(0, 9):
                via_rule = compact_relative_mult(a, b, n)
                via_oracle = un_branch_mult(
                    spherical_weight(a, n), spherical_weight(b, n - 1)
                ).multiplicity
                assert via_rule == via_oracle, (a, b, n)


def test_spherical_truth_table():
    # spherical-to-spherical restriction reproduces the a >= b >= 0 rule
    n = 5
    for a in range(0, 9):
        lam = spherical_weight(a, n)
        assert is_spherical(lam)
        for b in range(0, 9):
            mu = spherical_weight(b, n - 1)
            assert is_spherical(mu)
            assert un_branch_mult(lam, mu).multiplicity == (1 if a >= b else 0)


def test_su2_constant_case():
    thetas = np.linspace(0.0, np.pi, 181)
    phi = su2_spherical_coefficient(0, thetas)
    assert np.all(phi == 1.0)


def test_su2_degree_two_shape():
    # proportional to 3 cos^2(2 theta) - 1 with a single constant
    thetas = np.linspace(0.0, np.pi, 181)
    phi = su2_spherical_coefficient(2, thetas)
    shape = 3.0 * np.cos(2 * thetas) ** 2 - 1.0
    ratios = phi / shape
    finite = np.isfinite(ratios) & (np.abs(shape) > 1e-8)
    assert np.ptp(ratios[finite]) <= 1e-12


def test_su2_matches_legendre():
    thetas = np.linspace(0.0, np.pi, 181)
    xs = np.cos(2.0 * thetas)
    for n in range(0, 7):
        phi = su2_spherical_coefficient(n, thetas)
        phi0 = su2_spherical_coefficient(n, np.array([0.0]))[0]
        reference = jacobi_values(n, 0, 0, xs)
        assert np.max(np.abs(phi / phi0 - reference)) <= 1e-10


def test_su2_rejects_negative_degree():
    with pytest.raises(ValueError):
        su2_spherical_coefficient(-1, np.array([0.0]))


def test_oracle_imports_nothing_from_jacobi():
    # the exact Jacobi oracle must not share code with the module it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("." * node.level) + (node.module or "")
            modules = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in modules:
            assert name.split(".")[-1] != "jacobi", ast.unparse(node)


def test_only_the_oracle_references_lgamma():
    # the float log-gamma route is calibration evidence, never a result
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            assert "lgamma" not in names, (path.name, ast.unparse(node))

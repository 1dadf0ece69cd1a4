import ast
import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relbranch import oracle
from relbranch.jacobi import jacobi_rows
from relbranch.oracle import (
    GTBranchResult,
    HighestWeight,
    beta_argument_evidence,
    compact_relative_mult,
    is_spherical,
    spherical_weight,
    su2_spherical_coefficient,
    un_branch_mult,
)


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


THETAS = [math.pi * i / 180 for i in range(181)]


def test_su2_constant_case():
    phi = su2_spherical_coefficient(0, THETAS)
    assert phi == [1.0] * len(THETAS)


def test_su2_degree_two_shape():
    # proportional to 3 cos^2(2 theta) - 1 with a single constant
    phi = su2_spherical_coefficient(2, THETAS)
    shape = [3.0 * math.cos(2 * t) ** 2 - 1.0 for t in THETAS]
    ratios = [v / s for v, s in zip(phi, shape, strict=True) if abs(s) > 1e-8]
    assert max(ratios) - min(ratios) <= 1e-12


def test_su2_matches_legendre():
    xs = [math.cos(2.0 * t) for t in THETAS]
    for n in range(0, 7):
        phi = su2_spherical_coefficient(n, THETAS)
        phi0 = su2_spherical_coefficient(n, [0.0])[0]
        reference = jacobi_rows(n, 0, 0, xs)[n]
        assert max(abs(v / phi0 - r) for v, r in zip(phi, reference, strict=True)) <= 1e-10


def test_su2_rejects_negative_degree():
    with pytest.raises(ValueError):
        su2_spherical_coefficient(-1, [0.0])


def test_oracle_imports_nothing_from_jacobi():
    # the oracles must not share code with the modules they check: the exact
    # Jacobi oracle with jacobi, the Gelfand-Tsetlin rule with reps, the
    # radial oracle with specfun
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
            assert name.split(".")[-1] not in ("jacobi", "reps", "specfun"), ast.unparse(node)


def test_no_module_references_lgamma():
    # the radial integral is exact on every route, the oracle's included:
    # no float Beta function (lgamma, exp) is left to call
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            assert not {"lgamma", "exp"} & set(names), (path.name, ast.unparse(node))


def test_no_module_imports_numpy_or_dataclasses():
    # the package is stdlib only, and its records are NamedTuples or Frozen
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & {"numpy", "dataclasses"}, (path.name, ast.unparse(node))


# Imports the oracle with numpy blocked, so any import of it fails, and
# reports the calibration table and two matrix-coefficient values as JSON.
_NO_NUMPY_CHILD = """
import json, sys
sys.modules["numpy"] = None
from relbranch.oracle import beta_argument_evidence, su2_spherical_coefficient
json.dump([beta_argument_evidence(), su2_spherical_coefficient(2, [0.0, 0.5])], sys.stdout)
"""


def test_oracle_runs_with_numpy_blocked():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_CHILD], capture_output=True, text=True, check=True
    )
    evidence, values = json.loads(proc.stdout)
    assert evidence == beta_argument_evidence()
    assert values == su2_spherical_coefficient(2, [0.0, 0.5])


def test_calibration_doc_table_regenerates_byte_for_byte():
    # run the doc's own regeneration snippet and compare its lines with the table
    doc = Path(__file__).resolve().parent.parent / "docs" / "radial_integral_calibration.md"
    text = doc.read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(doc), "exec"), {})
    rows = [line for line in text.splitlines() if line.startswith("| A(")]
    assert len(rows) == len(oracle.DEFAULT_CALIBRATION_PAIRS)
    assert out.getvalue().splitlines() == rows

"""The claims report (tests/claims.py) on its quick domains: every claim
passes, and a claim that a defect breaks is reported as a FAIL with its
first counterexample."""

import claims


def test_quick_claims_pass(capsys):
    assert claims.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * len(claims.CLAIMS) + ["3"]
    assert lines[-1] == "3 of 3 claims pass"


def test_a_broken_claim_names_its_first_counterexample(capsys, monkeypatch):
    # a label dictionary one label step off on the subgroup side: b grows
    # by 1, so the first pair (n, k) = (0, 0) no longer couples
    real = claims.fj_label_to_b
    monkeypatch.setattr(claims, "fj_label_to_b", lambda sig, k: real(sig, k) + 2)
    assert claims.main(["--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL label dictionary (8, 24): ")
    assert lines[0].endswith("; first: (p, q) = (1, 2), n = 0, k = 0: hom_dim 0, nonzero period")
    assert [line.split()[0] for line in lines[1:]] == ["PASS", "PASS", "2"]


def test_usage():
    assert claims.main(["--full"]) == 2

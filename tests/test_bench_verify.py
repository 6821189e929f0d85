import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polycascade import bench, package, verify
from polycascade.constellation import derive_coefficients


def test_bench_rows_cover_grid_and_agree(tmp_path):
    rows = bench.run_bench(widths=(4, 8), batch_rows=(3, 16), repeats=2, seed=0)
    combos = {(r.op, r.n, r.r) for r in rows}
    assert len(combos) == len(rows) == len(bench.OPS) * 2 * 2  # one row per (op, n, r)
    assert {r.op for r in rows} == set(bench.OPS)
    assert all(r.max_rel_err <= bench.AGREEMENT_TOL for r in rows)
    out = tmp_path / "bench.csv"
    bench.write_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "op,n,r,fast_seconds,naive_seconds,max_rel_err"
    assert len(lines) == len(rows) + 1


def test_crossover_reporting():
    mk = lambda op, n, fast, naive: bench.BenchRow(op, n, 8, fast, naive, 0.0)
    rows = [mk("backward", 16, 2.0, 1.0), mk("backward", 32, 1.0, 2.0)]
    rows += [mk("squared_distances", 16, 2.0, 1.0)]
    xo = bench.crossover_widths(rows)
    assert xo["backward"] == 32
    assert xo["squared_distances"] is None  # none in range


def test_verify_battery_passes(capsys, caplog):
    # library code logs its report by default; the verify command passes print
    with caplog.at_level(logging.INFO, logger="polycascade.verify"):
        results = verify.run_all(seed=0)
    assert all(r.passed for r in results)
    assert len(results) == len(verify.CHECKS)
    assert capsys.readouterr().out == ""
    assert caplog.messages[-1] == f"{len(results)}/{len(results)} invariants passed"
    assert len(caplog.messages) == len(results) + 1


def skewed_coefficients(n, params, sigma2=0.0):
    good = derive_coefficients(n, params, sigma2)
    return dataclasses.replace(good, b3=good.b3 + 1e-3)


def test_u_equivalence_reads_the_production_closed_form(monkeypatch):
    # corrupt one closed-form coefficient where Package reads it: the check must see it
    monkeypatch.setattr(package, "derive_coefficients", skewed_coefficients)
    with pytest.raises(AssertionError, match="closed-form inverse off"):
        verify.check_u_equivalence(0)


def test_verify_fault_injection_names_failing_invariant():
    # the same corruption during the Gram-inverse check only: that check, and no other,
    # fails while carrying its name
    name, original = verify.CHECKS[0]

    def skewed_check(seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(package, "derive_coefficients", skewed_coefficients)
            original(seed)

    reports = []
    try:
        verify.CHECKS[0] = (name, skewed_check)
        results = verify.run_all(seed=0, report=reports.append)
    finally:
        verify.CHECKS[0] = (name, original)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["closed-form-gram-inverse"]
    assert any("FAIL closed-form-gram-inverse" in line for line in reports)
    assert any("6/7 invariants passed" in line for line in reports)


_SKEWED_VERIFY = """
import dataclasses
from polycascade import package, verify

good = package.derive_coefficients


def skewed(n, params, sigma2=0.0):
    coefficients = good(n, params, sigma2)
    return dataclasses.replace(coefficients, b3=coefficients.b3 + 1e-3)


package.derive_coefficients = skewed
verify.run_all(seed=0, report=print)
"""


def test_verify_checks_fail_alike_under_python_optimize():
    # python -O strips assert statements: no check may depend on one
    src = Path(verify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    reports = [subprocess.run([sys.executable, *flags, "-c", _SKEWED_VERIFY], env=env,
                              capture_output=True, text=True, timeout=120).stdout
               for flags in ([], ["-O"])]
    assert reports[0] == reports[1]
    assert "FAIL closed-form-gram-inverse: n=1" in reports[1]
    assert "FAIL interpolation-exactness" in reports[1]

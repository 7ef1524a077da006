"""Acceptance gate: every criterion at its stated tolerance.

Runs the same check suite as `capillary1d verify` (criterion 10 included,
which re-executes the suite and byte-compares the serialized report) and
prints one pass/fail line per criterion.
"""

import pytest

from capillary1d.verify import _report_bytes, run_all

CRITERIA = list(range(1, 11))


@pytest.fixture(scope="module")
def verify_run():
    return run_all()


@pytest.fixture(scope="module")
def results(verify_run):
    return {r.cid: r for r in verify_run[0]}


@pytest.mark.parametrize("cid", CRITERIA)
def test_criterion(results, cid, capsys):
    r = results[cid]
    with capsys.disabled():
        print(f"\n[acceptance] criterion {cid:2d}: {'PASS' if r.passed else 'FAIL'}  {r.name}")
    assert r.passed, f"criterion {cid} failed: {r.name}: {r.details}"


def test_verify_timings_stay_out_of_the_report(verify_run):
    # both passes time every criterion, and no second of it reaches the bytes
    # that criterion 10 compares and verify_report.json holds
    results, seconds = verify_run
    assert len(seconds) == 2
    keys = {"reference_run"} | {str(cid) for cid in range(1, 10)}
    report = _report_bytes(results)
    for pass_seconds in seconds:
        assert set(pass_seconds) == keys
        for value in pass_seconds.values():
            assert value > 0.0
            assert repr(value).encode() not in report
    assert b"reference_run" not in report and b"seconds" not in report


def test_mass_leak_negative_control(monkeypatch):
    # injected mass-leak bug: the mass criterion must catch it
    import capillary1d.kernels as kernels
    from capillary1d.verify import REFERENCE_RUN, _check_mass
    from capillary1d.config import run_config

    true_rhs = kernels.rhs

    def leaky_rhs(c, *args):
        c_dot, d, u, flux, aux = true_rhs(c, *args)
        c_dot = c_dot.copy()
        c_dot[0] += 1e-4  # slow drift into the conserved mode
        return c_dot, d, u, flux, aux

    monkeypatch.setattr(kernels, "rhs", leaky_rhs)
    out = run_config(REFERENCE_RUN)
    check = _check_mass(out)
    assert not check.passed

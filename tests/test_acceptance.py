"""Acceptance gate: every criterion at its stated tolerance.

Runs the same check suite as `capillary1d verify` (criterion 10 included,
which re-executes the suite and byte-compares the serialized report) and
prints one pass/fail line per criterion.  Its fixture runs two verify
passes, most of the suite's time, so the module is marked slow.
"""

import time

import pytest

from capillary1d.verify import _report_bytes, run_all

pytestmark = pytest.mark.slow

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
    results, timings = verify_run
    assert set(timings) == {"seconds_per_pass", "cpu_seconds_per_pass", "rhs_calls_per_pass"}
    keys = {"reference_run"} | {str(cid) for cid in range(1, 10)}
    report = _report_bytes(results)
    for name in ("seconds_per_pass", "cpu_seconds_per_pass"):
        assert len(timings[name]) == 2
        for pass_seconds in timings[name]:
            assert set(pass_seconds) == keys
            for value in pass_seconds.values():
                assert value > 0.0
                assert repr(value).encode() not in report
    assert b"reference_run" not in report and b"seconds" not in report
    assert b"rhs_calls" not in report
    # kernel calls are deterministic: the same in both passes, positive for
    # every criterion that runs a simulation (1 and 9 reuse the reference run)
    calls = timings["rhs_calls_per_pass"]
    assert len(calls) == 2 and calls[0] == calls[1]
    assert set(calls[0]) == keys
    assert {key for key, n in calls[0].items() if n > 0} == keys - {"1", "9"}
    assert all(n == 0 for key, n in calls[0].items() if key in ("1", "9"))


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
    t0 = time.perf_counter()
    out = run_config(REFERENCE_RUN)
    check = _check_mass(out, time.perf_counter() - t0)
    assert not check.passed
    assert check.details["relative_drift"] > 1e-10  # failed on mass, not on time

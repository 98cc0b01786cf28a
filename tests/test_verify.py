import math
import sys
import threading
import tracemalloc

import pytest

import amorlip.verify as verify_mod
from amorlip.errors import ContractError
from amorlip.verify import suite_spectral

# check values of the single-threaded coverage loop this one replaced, as float hex
PINNED = {
    (20_000, 10): {
        "spectral/coverage_tau_1": "0x1.0000000000000p+0",
        "spectral/coverage_tau_2": "0x1.0000000000000p+0",
        "spectral/coverage_tau_4": "0x1.0000000000000p+0",
        "spectral/partition_vs_exact": "0x1.825074c32f1f0p+0",
        "spectral/rmse_ratio_4x_features": "0x1.001f4f75b0c73p-1",
        "spectral/imaginary_part": "0x1.7e2bb901fadacp-7",
        "spectral/relative_se": "0x1.86cb8cc02d690p-7",
    },
    # few features: some trials miss, so the coverage fractions count hits
    (20, 30): {
        "spectral/coverage_tau_1": "0x1.eeeeeeeeeeeefp-1",
        "spectral/coverage_tau_2": "0x1.ddddddddddddep-1",
        "spectral/coverage_tau_4": "0x1.ddddddddddddep-1",
        "spectral/partition_vs_exact": "0x1.2f01b217bf3e8p+1",
        "spectral/rmse_ratio_4x_features": "0x1.59e7d30bc7d0ap-1",
        "spectral/imaginary_part": "0x1.5cca4627443e6p-4",
        "spectral/relative_se": "0x1.075b43adf87a6p-1",
    },
}

SIMS = (-0.5, 0.0, 0.5, 1.0)


@pytest.mark.parametrize("m, trials", sorted(PINNED))
def test_spectral_values_pinned(m, trials):
    checks = suite_spectral(m_features=m, trials=trials)
    assert {c["check"]: float(c["value"]).hex() for c in checks} == PINNED[m, trials]


def test_coverage_flags_match_sequential_trials():
    # frequent thread switches: a trial taken twice or lost would show as a
    # wrong or missing row
    jobs = [(2.0, 90_000 + k) for k in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flags = verify_mod._coverage_flags(jobs, SIMS, 40)
    finally:
        sys.setswitchinterval(interval)
    expected = []
    for tau, seed in jobs:
        fmap = verify_mod.sample_features(40, 2, tau, seed)
        row = []
        for s in SIMS:
            est = verify_mod.kernel_estimate(*verify_mod._pair_with_similarity(s), fmap)
            row.append(abs(est.value - math.exp(tau * s)) <= 3.0 * est.stderr)
        expected.append(row)
    assert flags == expected


def test_helper_thread_error_reaches_caller(monkeypatch):
    before = set(threading.enumerate())
    real = verify_mod._pair_with_similarity
    helper_failed = threading.Event()

    def pair(s):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(timeout=30)  # let the helper take a trial and fail first
        else:
            helper_failed.set()
            raise ContractError("planted in the helper")
        return real(s)

    monkeypatch.setattr(verify_mod, "_pair_with_similarity", pair)
    with pytest.raises(ContractError, match="planted in the helper"):
        suite_spectral(m_features=64, trials=10)
    assert helper_failed.is_set()
    assert set(threading.enumerate()) == before


def test_no_thread_left_after_suite():
    before = set(threading.enumerate())
    suite_spectral(m_features=64, trials=4)
    assert set(threading.enumerate()) == before


def test_coverage_loop_holds_two_slots():
    # each thread's slot: a (2, M) frequency draw and an M-vector projection;
    # the helper allocates no feature-length array of its own
    m = 200_000
    jobs = [(1.0, 90_000 + k) for k in range(6)]
    verify_mod._coverage_flags(jobs[:1], SIMS, 1)  # numpy.random's first seeding, once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flags = verify_mod._coverage_flags(jobs, SIMS, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(flags) == len(jobs)
    assert peak <= 2 * (2 * m * 8 + m * 8) + (1 << 20)

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import amorlip.amortization as amortization
import amorlip.spectral as spectral
import amorlip.verify as verify_mod
from amorlip.amortization import GENERATORS
from amorlip.data import generate_synthetic
from amorlip.errors import ConfigError, ContractError
from amorlip.trainer import TrainConfig, run_training
from amorlip.verify import COUNT_BOUNDS, SUITES, suite_gradcheck, suite_spectral

# spectral check values, as float hex. Each is that of a single-threaded
# loop with one fresh draw per (seed, tau); the coverage seeds are
# 90_000 + trial at every tau
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
    # few features: some trials miss, so the coverage fractions count hits;
    # test_coverage_pins_match_sequential_reference derives them from
    # per-tau draws
    (20, 30): {
        "spectral/coverage_tau_1": "0x1.eeeeeeeeeeeefp-1",
        "spectral/coverage_tau_2": "0x1.eeeeeeeeeeeefp-1",
        "spectral/coverage_tau_4": "0x1.eeeeeeeeeeeefp-1",
        "spectral/partition_vs_exact": "0x1.2f01b217bf3e8p+1",
        "spectral/rmse_ratio_4x_features": "0x1.59e7d30bc7d0ap-1",
        "spectral/imaginary_part": "0x1.5cca4627443e6p-4",
        "spectral/relative_se": "0x1.075b43adf87a6p-1",
    },
}

# gradcheck check values of the concatenated-vector pair checks this one
# replaced, as float hex; loss_fdiv_l2log's is the divergence loss under
# the l2log generator, not the l2log objective's loss_l2log figure
GRADCHECK_PINNED = {
    "gradcheck/nce_loss": "0x1.86d22f5cc0058p-29",
    "gradcheck/amortized_mle_loss": "0x1.78074d2809a6ep-30",
    "gradcheck/temperature_rescale": "0x1.96cbc7e95cc10p-30",
    "gradcheck/loss_l2log": "0x1.152778051e118p-32",
    "gradcheck/encoder_backward": "0x1.c0e5c78c073ebp-32",
    "gradcheck/amortize_forward": "0x1.b85ac893268c7p-33",
    "gradcheck/loss_fdiv_kl": "0x1.708a703ac5879p-30",
    "gradcheck/loss_fdiv_kl_affine": "0x1.de7d661bf4ce3p-32",
    "gradcheck/loss_fdiv_js": "0x1.e58c991822891p-29",
    "gradcheck/loss_fdiv_l2log": "0x1.5f1fd0a7dfb5fp-32",
}

SIMS = (-0.5, 0.0, 0.5, 1.0)
TAUS = (1.0, 2.0, 4.0)


@pytest.mark.parametrize("m, trials", sorted(PINNED))
def test_spectral_values_pinned(m, trials):
    checks = suite_spectral(m_features=m, trials=trials)
    assert {c["check"]: float(c["value"]).hex() for c in checks} == PINNED[m, trials]


def test_gradcheck_values_pinned():
    checks = suite_gradcheck()
    assert {c["check"]: float(c["value"]).hex() for c in checks} == GRADCHECK_PINNED


def test_gradcheck_reaches_each_generator(monkeypatch):
    # each loss_fdiv family checks the divergence loss with its own
    # generator, not the l2log objective under the l2log generator's name
    seen = []

    def loss_fdiv_values(log_lam, log_z, gen, weights):
        seen.append(gen.name)
        return real(log_lam, log_z, gen, weights)

    real = verify_mod.loss_fdiv_values
    monkeypatch.setattr(verify_mod, "loss_fdiv_values", loss_fdiv_values)
    suite_gradcheck(instances=1)
    assert set(seen) == set(GENERATORS)


def test_gradcheck_checks_the_trainers_divergence_objective(monkeypatch):
    # the trainer's amortization stage and gradcheck run one loss_fdiv: a
    # wrong divergence gradient moves the training step and fails gradcheck
    real = amortization.loss_fdiv_values

    def doubled(log_lam, log_z, gen, weights):
        loss, grad = real(log_lam, log_z, gen, weights)
        return loss, 2.0 * grad

    cfg = TrainConfig(objective="fdiv", generator="js", fdiv_l2log_coef=0.0, t_lambda=1,
                      t_online=1, epochs=1, batch_size=16, embed_dim=8, encoder_hidden=16, seed=6)
    ds = generate_synthetic(200, 4, 10, 9, 0.05, seed=6)
    # after one step, the amortizer gradient of its one stage-I iteration
    grad = run_training(cfg, ds, max_steps=1).opt_amortizer.store.grad.copy()
    monkeypatch.setattr(amortization, "loss_fdiv_values", doubled)
    assert np.array_equal(run_training(cfg, ds, max_steps=1).opt_amortizer.store.grad, 2.0 * grad)
    failing = {c["check"] for c in suite_gradcheck(instances=1) if c["status"] == "fail"}
    assert failing == {f"gradcheck/loss_fdiv_{g}" for g in GENERATORS}


@pytest.mark.parametrize("instances", [1, 3])
def test_gradcheck_one_sweep_per_draw(monkeypatch, instances):
    # per seed, one FD sweep for each parameter draw: the pair losses, the
    # amortizer losses, the encoder and amortize_forward
    sweeps = []
    real = verify_mod.finite_difference_gradient

    def finite_difference_gradient(f, x, h):
        sweeps.append(x)
        return real(f, x, h)

    monkeypatch.setattr(verify_mod, "finite_difference_gradient", finite_difference_gradient)
    checks = suite_gradcheck(instances=instances)
    assert len(sweeps) == 4 * instances
    fdiv = [f"loss_fdiv_{g}" for g in ("kl", "kl_affine", "js", "l2log")]
    names = ["nce_loss", "amortized_mle_loss", "temperature_rescale", "loss_l2log"]
    names += ["encoder_backward", "amortize_forward", *fdiv]
    assert [c["check"] for c in checks] == [f"gradcheck/{n}" for n in names]


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("suite, arg", [
    ("gradcheck", "instances"),
    ("equivalence", "batches"),
    ("spectral", "trials"),
    ("spectral", "m_features"),
])
def test_suite_count_below_one_rejected(suite, arg, count):
    # a suite that checks nothing would report a pass
    message = f"verify parameter {arg!r} must lie in {COUNT_BOUNDS[arg]}, got {count}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SUITES[suite](**{arg: count})


@pytest.mark.parametrize("count", [1.5, True])
@pytest.mark.parametrize("suite, arg", [
    ("gradcheck", "instances"),
    ("equivalence", "batches"),
    ("spectral", "trials"),
    ("spectral", "m_features"),
])
def test_suite_count_not_int_rejected(suite, arg, count):
    # range() takes neither a float nor, meaningfully, a bool
    message = f"verify parameter {arg!r} must be int, got {count!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SUITES[suite](**{arg: count})


def test_trials_beyond_bound_rejected():
    # the coverage pool is handed every trial at once: 2**53 would exhaust
    # memory, so the call is made only under a finite bound
    assert not COUNT_BOUNDS["trials"].endswith("inf)")
    message = f"verify parameter 'trials' must lie in {COUNT_BOUNDS['trials']}, got {2**53}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        suite_spectral(trials=2**53)


class Accepted(Exception):
    """Raised in place of a suite's first step once its counts pass."""


# each count's suite, and the name that suite calls first once its counts pass
COUNT_SUITES = {
    "instances": ("gradcheck", "_gradcheck_pair_losses"),
    "m_features": ("spectral", "_coverage_flags"),
    "trials": ("spectral", "_coverage_flags"),
    "batches": ("equivalence", "seeded_rng"),
}


@pytest.mark.parametrize("arg", list(COUNT_BOUNDS))
def test_count_bound_ends(monkeypatch, interval_ends, arg):
    # a closed end is accepted without running the suite: at MAX_FEATURES
    # its buffers would take hundreds of megabytes
    suite, first_step = COUNT_SUITES[arg]

    def accepted(*args, **kwargs):
        raise Accepted

    monkeypatch.setattr(verify_mod, first_step, accepted)
    interval = COUNT_BOUNDS[arg]
    for value, ok in interval_ends(interval, int):
        if ok:
            with pytest.raises(Accepted):
                SUITES[suite](**{arg: value})
            continue
        message = f"verify parameter {arg!r} must lie in {interval}, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SUITES[suite](**{arg: value})


def sequential_flags(seeds, taus, m):
    """The coverage flags from a fresh draw per (seed, tau), one at a time."""
    flags = []
    for seed in seeds:
        rows = []
        for tau in taus:
            omegas = spectral.sample_features(m, 2, seed)
            row = []
            for s in SIMS:
                est = spectral.kernel_estimate(*verify_mod._pair_with_similarity(s), omegas, tau)
                row.append(abs(est.value - math.exp(tau * s)) <= 3.0 * est.stderr)
            rows.append(row)
        flags.append(rows)
    return flags


def test_coverage_flags_match_sequential_trials(monkeypatch):
    # frequent thread switches: a seed taken twice or lost would show as a
    # wrong or missing row; one shared draw per seed gives the flags of
    # three per-tau draws
    seeds = [90_000 + k for k in range(60)]
    drawn = []

    def sample_features(m, d, seed, out=None):
        drawn.append(seed)
        return spectral.sample_features(m, d, seed, out=out)

    monkeypatch.setattr(verify_mod, "sample_features", sample_features)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flags = verify_mod._coverage_flags(seeds, SIMS, 40)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(drawn) == seeds  # once per seed, at every tau
    assert flags == sequential_flags(seeds, TAUS, 40)


def test_coverage_loop_cosines_per_seed(monkeypatch):
    # each similarity below 1 takes cosines at tau 1 and 2 from its one
    # projection and tau 4's from tau 1's; the s = 1 pair takes none
    m = 1000
    seeds = [90_000 + k for k in range(4)]
    calls = []
    real = np.cos

    def cos(x, *args, **kwargs):
        if np.shape(x) == (m,):
            calls.append(x.shape)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", cos)
    verify_mod._coverage_flags(seeds, SIMS, m)
    assert len(calls) == 6 * len(seeds)


@pytest.mark.parametrize("tau", TAUS)
def test_coverage_pins_match_sequential_reference(tau):
    flags = sequential_flags([90_000 + k for k in range(30)], (tau,), 20)
    worst = min(sum(col) / 30 for col in zip(*(rows[0] for rows in flags)))
    assert worst.hex() == PINNED[20, 30][f"spectral/coverage_tau_{tau:g}"]


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


def test_first_trial_error_cancels_the_rest(monkeypatch):
    # full-size trials take milliseconds each, so the pool cancels most of
    # the queue before the other worker gets through it
    seeds = [90_000 + k for k in range(60)]
    started = []

    def sample_features(m, d, seed, out=None):
        started.append(seed)
        if seed == seeds[0]:
            raise ContractError("planted in the first trial")
        return spectral.sample_features(m, d, seed, out=out)

    monkeypatch.setattr(verify_mod, "sample_features", sample_features)
    with pytest.raises(ContractError, match="planted in the first trial"):
        verify_mod._coverage_flags(seeds, SIMS, 200_000)
    assert seeds[0] in started
    assert len(started) < len(seeds) // 2


def test_no_thread_left_after_suite():
    before = set(threading.enumerate())
    suite_spectral(m_features=64, trials=4)
    assert set(threading.enumerate()) == before


def test_coverage_loop_holds_two_slots():
    # each thread's slot: a (2, M) frequency draw and a (2, M) work array
    # for the projection and the tau-1 cosines that tau 4 reads; the helper
    # allocates no feature-length array of its own
    m = 200_000
    seeds = [90_000 + k for k in range(6)]
    verify_mod._coverage_flags(seeds[:1], SIMS, 1)  # numpy.random's first seeding, once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flags = verify_mod._coverage_flags(seeds, SIMS, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(flags) == len(seeds)
    assert peak <= 2 * (2 * m * 8 + 2 * m * 8) + (1 << 20)

"""Self-contained verification suites behind the `verify` CLI command:
finite-difference gradient checks for every exported loss, Monte-Carlo
checks of the spectral partition representation, schedule exactness, and
the gradient equivalence of the two maximum-likelihood forms.

Each check returns {"check", "status", "value", "tolerance"}; a suite
passes only if every check passes. All randomness is seeded.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .amortization import (
    GENERATORS,
    amortize_backward,
    amortize_forward,
    beta_schedule,
    ema_update,
    exact_partition,
    fdiv_weights,
    init_amortizer,
    loss_fdiv,
    loss_fdiv_values,
    loss_l2log,
    loss_l2log_values,
)
from .encoders import EmbeddingBatch, encode, encoder_backward, init_encoders
from .errors import ConfigError, check_value
from .losses import (
    LossOutput,
    amortized_mle_loss,
    mle_gradient_equivalence_check,
    nce_loss,
    rho_at,
    temperature_rescale,
)
from .numerics import (
    Array,
    ParamBlock,
    ParamStore,
    finite_difference_gradient,
    gradcheck_error,
    seeded_rng,
)
from .spectral import (
    LADDER,
    imaginary_part_estimate,
    kernel_estimate,
    kernel_ladder,
    partition_estimate_mc,
    sample_features,
)

FD_STEP = 1e-6
GRAD_TOL = 1e-5
# the largest --features the spectral suite takes: its coverage pool (two slots
# of (2, M) + (2, M)) and its partition check ((M, 4) + four M-vectors) each
# hold 8 float64 per feature, about 64 bytes, or 0.65 GB at this bound
MAX_FEATURES = 10_000_000
# the interval each suite count takes: below 1, a suite would check nothing and
# pass; the coverage pool is handed every trial at once, and holds its flags
COUNT_BOUNDS = {"instances": "[1, inf)", "m_features": f"[1, {MAX_FEATURES}]",
                "trials": "[1, 100000]", "batches": "[1, inf)"}


def _check(name: str, value: float, tolerance, ok: bool) -> dict:
    return {
        "check": name,
        "status": "pass" if ok else "fail",
        "value": value,
        "tolerance": tolerance,
    }


def _unit_batch(rng: np.random.Generator, n: int, d: int) -> EmbeddingBatch:
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return EmbeddingBatch(raw)


# ---------------------------------------------------------------------------
# gradcheck suite


def _gradcheck_params(
    blocks: list[ParamBlock],
    values: Callable[[], list[float]],
    backwards: dict[str, Callable[[], None]],
) -> dict[str, float]:
    """FD check over the blocks' parameters, by check name: values() gives
    one value per backward, in the same order, and each is checked against
    the gradient that its backward accumulates. One FD sweep serves all: it
    moves the store's values in place, and values() reads them via the blocks."""
    store = ParamStore(blocks)
    grads = {}
    for name, backward in backwards.items():
        store.zero_grad()
        backward()
        grads[name] = store.grad.copy()
    numeric = finite_difference_gradient(lambda _: values(), store.value, FD_STEP)
    return {name: gradcheck_error(g, row) for (name, g), row in zip(grads.items(), numeric)}


def _gradcheck_pair_losses(seed: int) -> dict[str, float]:
    """FD check over both embedding batches and log(tau) for the NCE loss,
    the amortized MLE loss and the temperature-rescaled NCE loss."""
    rng = seeded_rng(9100, seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 17))
    a = ParamBlock("a", _unit_batch(rng, n, d).data)
    b = ParamBlock("b", _unit_batch(rng, n, d).data)
    tau = float(rng.uniform(0.5, 4.0))
    log_tau = ParamBlock("log_tau", [[math.log(tau)]])
    log_lam_a = rng.standard_normal(n)
    log_lam_b = rng.standard_normal(n)
    rho = float(rng.uniform(-8.0, 8.0))

    def losses(t: float) -> tuple[LossOutput, LossOutput]:
        ea, eb = EmbeddingBatch(a.value), EmbeddingBatch(b.value)
        return nce_loss(ea, eb, t), amortized_mle_loss(ea, eb, t, log_lam_a, log_lam_b)

    def values() -> list[float]:
        t = math.exp(float(log_tau.value[0, 0]))
        nce, mle = losses(t)
        return [nce.value, mle.value, nce.value / tau + rho / t]  # rescaled by the base tau

    def accumulate(out: LossOutput) -> None:
        a.grad += out.grad_a
        b.grad += out.grad_b
        log_tau.grad += out.tau_grad * tau

    # at the drawn tau: exp(log(tau)) can differ from it in the last bit
    nce, mle = losses(tau)
    return _gradcheck_params([a, b, log_tau], values, {
        "nce_loss": lambda: accumulate(nce),
        "amortized_mle_loss": lambda: accumulate(mle),
        "temperature_rescale": lambda: accumulate(temperature_rescale(nce, tau, rho)),
    })


def _gradcheck_amortizer_losses(seed: int) -> dict[str, float]:
    """FD check over the amortizer parameters for the l2log objective and
    the divergence objective under each generator."""
    rng = seeded_rng(9200, seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 13))
    emb = _unit_batch(rng, n, d)
    other = _unit_batch(rng, n, d)
    tau = float(rng.uniform(0.5, 2.0))
    log_z = exact_partition(emb, other, tau).log_z_exact
    theta = init_amortizer(d, 0.5, "a", (seed, 9201))
    weights = fdiv_weights(emb.data @ other.data.T, tau, log_z)

    def values() -> list[float]:
        log_lam = amortize_forward(theta, emb)[0]
        fdiv = [loss_fdiv_values(log_lam, log_z, g, weights)[0] for g in GENERATORS.values()]
        return [loss_l2log_values(log_lam, log_z)[0], *fdiv]

    # the trainer's divergence objective, without its l2log term
    fdiv = {f"loss_fdiv_{g.name}": lambda g=g: loss_fdiv(theta, emb, log_z, g, weights, 0.0)
            for g in GENERATORS.values()}
    return _gradcheck_params(
        theta.blocks(), values, {"loss_l2log": lambda: loss_l2log(theta, emb, log_z), **fdiv}
    )


def _gradcheck_encoder(seed: int) -> dict[str, float]:
    """FD check over encoder parameters against a linear probe of the embeddings."""
    rng = seeded_rng(9300, seed)
    n = int(rng.integers(2, 7))
    d = int(rng.integers(2, 9))
    dim_in = {"a": int(rng.integers(2, 8)), "b": int(rng.integers(2, 8))}
    params = init_encoders(dim_in, hidden=6, depth=1, embed_dim=d, seed=seed)
    x = rng.standard_normal((n, dim_in["a"]))
    probe = rng.standard_normal((n, d))
    return _gradcheck_params(
        params.nets["a"].blocks(),
        lambda: [float(np.sum(encode(params, x, "a")[0].data * probe))],
        {"encoder_backward": lambda: encoder_backward(encode(params, x, "a")[1], probe)},
    )


def _gradcheck_amortize_forward(seed: int) -> dict[str, float]:
    """FD check over amortizer parameters against a linear probe of log lambda."""
    rng = seeded_rng(9400, seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 13))
    emb = _unit_batch(rng, n, d)
    probe = rng.standard_normal(n)
    theta = init_amortizer(d, 0.75, "a", (seed, 9401))
    return _gradcheck_params(
        theta.blocks(),
        lambda: [float(np.dot(amortize_forward(theta, emb)[0], probe))],
        {"amortize_forward": lambda: amortize_backward(amortize_forward(theta, emb)[1], probe)},
    )


def suite_gradcheck(instances: int = 20) -> list[dict]:
    check_value("verify parameter", "instances", instances, int, COUNT_BOUNDS["instances"])
    worst: dict[str, float] = {}
    for group in (_gradcheck_pair_losses, _gradcheck_amortizer_losses,
                  _gradcheck_encoder, _gradcheck_amortize_forward):
        for s in range(instances):
            for name, error in group(s).items():
                worst[name] = max(worst.get(name, error), error)
    # the divergence families print last, as they always have
    names = sorted(worst, key=lambda name: name.startswith("loss_fdiv_"))
    return [_check(f"gradcheck/{n}", worst[n], GRAD_TOL, worst[n] < GRAD_TOL) for n in names]


# ---------------------------------------------------------------------------
# spectral suite


def _pair_with_similarity(s: float) -> tuple[Array, Array]:
    """Two 2-D unit vectors with inner product s.

    The kernel estimate reads the frequencies only through <w, u1 - u2>,
    so a pair in a plane needs just two frequency coordinates. A (2, M)
    draw is the first two rows of the (d, M) draw from the same seed, so
    the estimates equal those of the pair zero-padded to d dimensions."""
    return np.array([1.0, 0.0]), np.array([s, math.sqrt(max(0.0, 1.0 - s * s))])


def _coverage_flags(
    seeds: list[int], sims: tuple[float, ...], m_features: int
) -> list[list[list[bool]]]:
    """For each seed, in order, and each tau of the ladder, whether each
    similarity's kernel estimate lies within 3 standard errors of exp(tau * s).
    An infinite standard error (one feature) covers every value, so it fails.

    Two threads take the seeds, each to whichever is free; numpy's normal
    draw and cos release the GIL. A trial draws its seed once into one of
    two slots, a (2, M) frequency buffer and a (2, M) work array that the
    caller allocates, so no feature-length memory lands in a second malloc
    arena. A seed's figures do not depend on the slot or thread that runs
    it. The first error in seed order is raised here, and the seeds not yet
    started are cancelled."""
    slots = queue.SimpleQueue()
    for _ in range(2):
        slots.put((np.empty((2, m_features)), np.empty((2, m_features))))

    def trial(seed: int) -> list[list[bool]]:
        buf, work = slots.get()
        try:
            omegas = sample_features(m_features, 2, seed, out=buf)
            per_s = [kernel_ladder(*_pair_with_similarity(s), omegas, work) for s in sims]
        finally:
            slots.put((buf, work))
        return [
            [math.isfinite(e.stderr) and abs(e.value - math.exp(tau * s)) <= 3.0 * e.stderr
             for s, e in zip(sims, per_tau)]
            for tau, per_tau in zip(LADDER, zip(*per_s))
        ]

    with ThreadPoolExecutor(2, thread_name_prefix="spectral-coverage") as pool:
        return list(pool.map(trial, seeds))


def suite_spectral(m_features: int = 200_000, trials: int = 100) -> list[dict]:
    check_value("verify parameter", "m_features", m_features, int, COUNT_BOUNDS["m_features"])
    check_value("verify parameter", "trials", trials, int, COUNT_BOUNDS["trials"])
    checks = []
    d_pair = 2  # the pair checks
    d = 4  # the partition check's batches
    sims = (-0.5, 0.0, 0.5, 1.0)

    # 3-standard-error coverage of the kernel estimate, per (tau, s)
    flags = _coverage_flags([90_000 + trial for trial in range(trials)], sims, m_features)
    for ti, tau in enumerate(LADDER):
        worst_fraction = min(sum(col) / trials for col in zip(*(rows[ti] for rows in flags)))
        checks.append(
            _check(f"spectral/coverage_tau_{tau:g}", worst_fraction, 0.95, worst_fraction >= 0.95)
        )

    # partition estimate against the exact batch partition, 3-SE z-scores; an
    # infinite standard error measures nothing, so its z-score is inf, not 0
    max_z = 0.0
    tau = 1.0
    for b in range(5):
        rng = seeded_rng(91_000, b)
        batch = _unit_batch(rng, 8, d)
        query = _unit_batch(rng, 8, d)
        pe = exact_partition(query, batch, tau)
        omegas = sample_features(m_features, d, seed=92_000 + b)
        for est, log_z in zip(partition_estimate_mc(query.data, batch, omegas, tau), pe.log_z_exact):
            gap = abs(est.value - math.exp(log_z))
            max_z = max(max_z, gap / est.stderr if math.isfinite(est.stderr) else math.inf)
        del omegas
    checks.append(_check("spectral/partition_vs_exact", max_z, 3.0, max_z <= 3.0))

    # O(1/sqrt(M)) error decay: quadrupling M should halve the RMSE
    tau, s = 2.0, 0.5
    m0 = max(10, m_features // 50)
    u1, u2 = _pair_with_similarity(s)
    truth = math.exp(tau * s)
    errs0, errs1 = [], []
    for seed in range(50):
        e0 = kernel_estimate(u1, u2, sample_features(m0, d_pair, seed=93_000 + seed), tau)
        e1 = kernel_estimate(u1, u2, sample_features(4 * m0, d_pair, seed=94_000 + seed), tau)
        errs0.append((e0.value - truth) ** 2)
        errs1.append((e1.value - truth) ** 2)
    ratio = math.sqrt(sum(errs1) / len(errs1)) / math.sqrt(sum(errs0) / len(errs0))
    checks.append(
        _check("spectral/rmse_ratio_4x_features", ratio, "[0.3333, 0.75]", 1.0 / 3.0 <= ratio <= 0.75)
    )

    # imaginary part of the feature product vanishes by symmetry
    omegas = sample_features(m_features, d_pair, seed=95_000)
    imag = abs(imaginary_part_estimate(*_pair_with_similarity(s), omegas, tau))
    bound = 3.0 / math.sqrt(m_features)
    checks.append(_check("spectral/imaginary_part", imag, bound, imag <= bound))

    # precision gate: the estimator is only useful once the relative
    # standard error is small; deliberately tiny feature counts fail here
    est = kernel_estimate(u1, u2, omegas, tau)
    rel_se = est.stderr / abs(est.value)
    checks.append(_check("spectral/relative_se", rel_se, 0.01, rel_se <= 0.01))
    return checks


# ---------------------------------------------------------------------------
# schedules suite


def suite_schedules() -> list[dict]:
    checks = []
    total, beta_final = 10, 0.8
    dev = max(
        abs(beta_schedule(0, total, beta_final) - 0.0),
        abs(beta_schedule(total, total, beta_final) - beta_final),
        abs(beta_schedule(total // 2, total, beta_final) - beta_final / 2.0),
    )
    checks.append(_check("schedules/beta_endpoints", dev, 1e-12, dev <= 1e-12))

    values = [beta_schedule(t, total, beta_final) for t in range(total + 1)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    checks.append(_check("schedules/beta_monotone", float(monotone), 1.0, monotone))

    worst = 0.0
    for alpha in (0.92, 0.999):
        online, target = (
            ParamStore(init_amortizer(6, 0.5, "a", (1, 77), prefix).blocks())
            for prefix in ("online", "ema")
        )
        target.value.fill(0.0)
        online.value.fill(1.0)
        k = 50
        for _ in range(k):
            ema_update(target, online, alpha)
        expected = alpha**k
        gap = np.abs(target.value - 1.0)  # |theta_hat_k - theta| should be alpha^k
        worst = max(worst, float(np.max(np.abs(gap - expected))) / expected)
    checks.append(_check("schedules/ema_geometric", worst, 1e-9, worst <= 1e-9))

    ok = (
        rho_at(22, 30, 6.5, -8.0, 0.75) == 6.5
        and rho_at(23, 30, 6.5, -8.0, 0.75) == -8.0
        and rho_at(30, 30, 6.5, -8.0, 0.75) == -8.0
        and all(rho_at(e, 30, 6.5, -8.0, 1.0) == 6.5 for e in range(1, 31))
    )
    checks.append(_check("schedules/rho_boundaries", float(ok), 1.0, ok))
    return checks


# ---------------------------------------------------------------------------
# gradient-equivalence suite


def suite_equivalence(batches: int = 20) -> list[dict]:
    check_value("verify parameter", "batches", batches, int, COUNT_BOUNDS["batches"])
    checks = []
    for tau, n, tol in ((1.0, None, 1e-10), (10.0, 8, 1e-8)):
        worst = 0.0
        for seed in range(batches):
            rng = seeded_rng(9700, int(tau * 10), seed)
            nn = n if n is not None else int(rng.integers(4, 9))
            emb_a = _unit_batch(rng, nn, 8)
            emb_b = _unit_batch(rng, nn, 8)
            worst = max(worst, mle_gradient_equivalence_check(emb_a, emb_b, tau))
        checks.append(
            _check(f"equivalence/mle_forms_tau_{tau:g}", worst, tol, worst < tol)
        )
    return checks


SUITES = {
    "gradcheck": suite_gradcheck,
    "spectral": suite_spectral,
    "schedules": suite_schedules,
    "equivalence": suite_equivalence,
}


def run_suite(name: str, **kwargs) -> list[dict]:
    if name not in SUITES:
        raise ConfigError(f"unknown verification suite {name!r}, expected one of {sorted(SUITES)}")
    return SUITES[name](**kwargs)

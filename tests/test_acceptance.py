"""Acceptance suite: one test per criterion, each printing a verdict line.

Absolute MAP figures from full-scale image benchmarks are out of reach on
desk hardware, so acceptance is property-based (gradient and ranking
oracles, merge-layer invariants, determinism) plus trend reproduction on
the default synthetic benchmark: 8 classes, dim 16, 2000 items, seeds
{1..5}, Full 24 -> 16 bits vs width-matched ablations with matched epoch
budgets.

The library defaults keep the reference step size (1e-4); on this small
benchmark the raw pair-sum loss needs the desk-scale 1e-7 used here (the
default diverges within a few epochs - see the hash-loss definition, a sum
over up to batch_size^2 pairs with eta 1200).

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import copy
import itertools
import statistics
import time

import numpy as np
import pytest

from nmhash.data import generate_synthetic
from nmhash.losses import relaxed_hash_loss, relaxed_hash_loss_grad
from nmhash.merging import (
    MergeGraph,
    active_grad,
    draw_choices,
    eval_forward,
    frozen_grads,
    frozen_loss,
    groups_after_truncation,
    propagate_scores,
    truncate,
)
from nmhash.metrics import mean_average_precision, retrieve
from nmhash.network import SgdConfig, backward, forward, init_network
from nmhash.training import ExperimentConfig, TrainingRun, load_checkpoint, \
    save_checkpoint
from oracles import (brute_force_map, central_difference, joined_components,
                     relative_error)

DESK = SgdConfig(learning_rate=1e-7, weight_decay=1e-5)

GRAD_TOL = 1e-6          # criterion 1: relative error bound
AP_TOL = 1e-12           # criterion 2: per-query AP agreement
CONSERVE_TOL = 1e-12     # criterion 3: score-sum conservation
MAP_GAP_TOL = 0.02       # criterion 5: Full may trail Baseline by this much
ROUND_DROP_TOL = 0.15    # criterion 5: max MAP drop in one merge round
TIE_TOL = 0.01           # criterion 6: ordering tie allowance
FAST_BUDGET_S = 10.0     # criteria 1-2
TREND_BUDGET_S = 600.0   # criteria 4, 5, 8


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def default_set():
    return generate_synthetic(8, 16, 250, 2.0, seed=0)


@pytest.fixture(scope="module")
def trend_runs(default_set):
    """Criteria 4-6 share these 20 runs (4 variants x seeds 1..5).

    Full: 24 -> 16, m 4, 30 base + 2 rounds x (5 active + 40 frozen)
    = 120 epochs.  Baseline trains 16 bits for the same 120 epochs.
    Random and Select keep Full's base epochs and widths, so they train
    fewer: Random 30 + 2 rounds x 40 frozen = 110, and Select 30 + 5
    scoring = 35.
    """
    t0 = time.time()
    reports: dict[str, list] = {}
    for variant in ("full", "baseline", "random", "select"):
        rows = []
        for seed in range(1, 6):
            if variant == "baseline":
                cfg = ExperimentConfig(
                    b_in=16, b_out=16, base_epochs=120, variant=variant,
                    seed=seed, backbone_sgd=DESK)
            else:
                cfg = ExperimentConfig(
                    b_in=24, b_out=16, m=4, base_epochs=30, variant=variant,
                    seed=seed, backbone_sgd=DESK)
            rows.append(TrainingRun(cfg, default_set).run().report())
        reports[variant] = rows
    reports["elapsed"] = time.time() - t0
    return reports


def _median_map(reports) -> float:
    return statistics.median(r.final["map"] for r in reports)


# --- criterion 1: gradient oracles -------------------------------------------

def _flat_params(net):
    return np.concatenate([w.ravel() for w in net.weights] +
                          [b.ravel() for b in net.biases])


def _with_params(template, flat):
    net = copy.deepcopy(template)
    pos = 0
    for w in net.weights:
        w[...] = flat[pos:pos + w.size].reshape(w.shape)
        pos += w.size
    for b in net.biases:
        b[...] = flat[pos:pos + b.size]
        pos += b.size
    return net


def test_criterion_1_gradient_oracles():
    t0 = time.time()
    worst = 0.0

    # relaxed pairwise loss, coordinates bounded away from the sign kink
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        u = rng.uniform(0.2, 1.5, (n, k)) * \
            np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        s = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        s = np.triu(s) + np.triu(s, 1).T
        eta = float(rng.choice([0.0, 1.0, 1200.0]))
        err = relative_error(
            relaxed_hash_loss_grad(u, s, eta),
            central_difference(
                lambda x: relaxed_hash_loss(x, s, eta).total, u))
        worst = max(worst, err)

    # frozen tie-together loss: zero upstream isolates the penalty term
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        cut = int(rng.integers(2, n + 1))
        graph = MergeGraph.from_partition(
            n, [list(range(cut)), *[[i] for i in range(cut, n)]])
        u = rng.uniform(0.2, 1.5, n) * np.where(rng.random(n) < 0.5, -1, 1)
        choices = draw_choices(graph, rng)
        err = relative_error(
            frozen_grads(graph, u, choices, np.zeros(graph.n_groups)),
            central_difference(
                lambda x: frozen_loss(graph, x, choices), u))
        worst = max(worst, err)

    # backbone parameters against a fixed scalar projection of the outputs
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        net = init_network(dims, seed=seed)
        x = rng.normal(size=(4, dims[0]))
        proj = rng.normal(size=(4, dims[-1]))
        _, cache = forward(net, x)
        grads = backward(net, cache, proj)
        analytic = np.concatenate(
            [dw.ravel() for dw, _ in grads] + [db.ravel() for _, db in grads])

        def head(flat):
            out, _ = forward(_with_params(net, flat), x)
            return float((out * proj).sum())

        err = relative_error(analytic, central_difference(head, _flat_params(net)))
        worst = max(worst, err)

    # adjacency rule vs the finite difference of its single pair term
    pair_worst = 0.0
    rng = np.random.default_rng(300)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6))
        p = rng.random(n)
        a = np.triu(rng.uniform(0, 0.1, (n, n)), 1)
        a = a + a.T
        pp = propagate_scores(p, a)
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        if abs(pp[i] - pp[j]) < 1e-3 or abs(p[i] - p[j]) < 1e-3:
            continue  # stay away from ties

        def pair_term(val):
            trial = a.copy()
            trial[i, j] = trial[j, i] = val
            q = propagate_scores(p, trial)
            return abs(q[i] - q[j])

        h = 1e-6
        numeric = (pair_term(a[i, j] + h) - pair_term(a[i, j] - h)) / (2 * h)
        analytic = active_grad(p, pp)[i, j]
        pair_worst = max(pair_worst, abs(analytic - numeric) /
                         max(abs(numeric), 1e-300))
        checked += 1

    elapsed = time.time() - t0
    ok = worst < GRAD_TOL and pair_worst < GRAD_TOL and elapsed < FAST_BUDGET_S
    _verdict(1, ok,
             f"max rel err {worst:.2e} (losses/backbone), "
             f"{pair_worst:.2e} (pair term), tol {GRAD_TOL:.0e}, "
             f"{elapsed:.1f}s of {FAST_BUDGET_S:.0f}s")


# --- criterion 2: MAP oracle equivalence --------------------------------------

def test_criterion_2_map_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))            # K <= 6 forces distance ties
        nq = int(rng.integers(1, 21))          # n <= 20
        ng = int(rng.integers(1, 21))
        q = np.where(rng.random((nq, k)) < 0.5, -1, 1)
        g = np.where(rng.random((ng, k)) < 0.5, -1, 1)
        ql = [{int(rng.integers(0, 3))} for _ in range(nq)]
        gl = [{int(rng.integers(0, 3))} for _ in range(ng)]
        expected_map, expected_rank = brute_force_map(q, ql, g, gl)
        res = retrieve(q, ql, g, gl)
        np.testing.assert_array_equal(res.ranked_indices, expected_rank)
        worst = max(worst, abs(
            mean_average_precision(q, ql, g, gl) - expected_map))
    elapsed = time.time() - t0
    ok = worst <= AP_TOL and elapsed < FAST_BUDGET_S
    _verdict(2, ok,
             f"100 instances bit-for-bit, max |MAP diff| {worst:.1e} "
             f"(tol {AP_TOL:.0e}), {elapsed:.1f}s of {FAST_BUDGET_S:.0f}s")


# --- criterion 3: merge-layer invariants ---------------------------------------

def test_criterion_3_merge_layer_invariants():
    rng = np.random.default_rng(7)

    # score-sum conservation under diffusion
    worst_drift = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = rng.random(n)
        a = np.triu(rng.uniform(0, 0.5, (n, n)), 1)
        a = a + a.T
        worst_drift = max(worst_drift,
                          abs(propagate_scores(p, a).sum() - p.sum()))

    # identity at zero adjacency
    p = rng.random(9)
    identity_ok = (propagate_scores(p, np.zeros((9, 9))) == p).all()

    # truncation: exactly `joins` joins along the strongest edges that join
    # two groups (brute-force oracle), deterministic tie handling
    trunc_ok = True
    singletons = MergeGraph.from_partition(5, [[i] for i in range(5)])
    for joins in range(5):
        a = np.triu(rng.uniform(0, 1, (5, 5)), 1)
        a = a + a.T
        expected = joined_components(a, joins)
        trunc_ok &= groups_after_truncation(a, joins) == expected
        trunc_ok &= truncate(singletons, a, joins).groups == expected
    tie = np.ones((4, 4)) - np.eye(4)
    trunc_ok &= groups_after_truncation(tie, 1) == [[0, 1], [2], [3]]
    trunc_ok &= groups_after_truncation(tie, 2) == [[0, 1, 2], [3]]

    # majority vote: quoted pair cases, then every pattern up to size 4
    pair = MergeGraph.from_partition(2, [[0, 1]])
    vote_ok = bool(eval_forward(pair, [0.4, 0.9]) == [1.0] and
                   eval_forward(pair, [0.4, -0.9]) == [0.0])
    for size in range(1, 5):
        g = MergeGraph.from_partition(size, [list(range(size))])
        for pattern in itertools.product((-1.0, 1.0), repeat=size):
            total = sum(pattern)
            want = 0.0 if total == 0 else float(np.sign(total))
            vote_ok &= bool(eval_forward(g, np.array(pattern) * 0.7) == [want])
            # oddness: flipping every member flips (or keeps) the vote
            vote_ok &= bool(
                eval_forward(g, -np.array(pattern) * 0.7) == [-want])

    ok = (worst_drift < CONSERVE_TOL and identity_ok and trunc_ok
          and vote_ok)
    _verdict(3, ok,
             f"conservation drift {worst_drift:.1e} (tol {CONSERVE_TOL:.0e}), "
             f"identity {identity_ok}, truncation {trunc_ok}, "
             f"votes {vote_ok}")


# --- criterion 4: redundancy-reduction trend ------------------------------------

def test_criterion_4_redundancy_trend(trend_runs):
    full = statistics.median(
        r.leave_one_out["std"] for r in trend_runs["full"])
    base = statistics.median(
        r.leave_one_out["std"] for r in trend_runs["baseline"])
    elapsed = trend_runs["elapsed"]
    ok = full <= base and elapsed < TREND_BUDGET_S
    _verdict(4, ok,
             f"median leave-one-out std: full {full:.5f} <= baseline "
             f"{base:.5f}; shared runs took {elapsed:.0f}s of "
             f"{TREND_BUDGET_S:.0f}s")


# --- criterion 5: compaction quality trend ---------------------------------------

def test_criterion_5_compaction_trend(trend_runs):
    full = _median_map(trend_runs["full"])
    base = _median_map(trend_runs["baseline"])
    quality_ok = full >= base - MAP_GAP_TOL

    trace_ok = True
    for r in trend_runs["full"]:
        bits = [b for b, _ in r.bit_trace]
        maps = [v for _, v in r.bit_trace]
        trace_ok &= bits[0] == 24 and bits[-1] == 16
        trace_ok &= all(b2 < b1 for b1, b2 in zip(bits, bits[1:]))
        trace_ok &= all(m1 - m2 <= ROUND_DROP_TOL
                        for m1, m2 in zip(maps, maps[1:]))

    ok = quality_ok and trace_ok and trend_runs["elapsed"] < TREND_BUDGET_S
    _verdict(5, ok,
             f"median MAP full {full:.4f} vs baseline {base:.4f} "
             f"(allowed gap {MAP_GAP_TOL}), traces 24->16 with no round "
             f"losing more than {ROUND_DROP_TOL} MAP: {trace_ok}")


# --- criterion 6: variant ordering ------------------------------------------------

def test_criterion_6_variant_ordering(trend_runs):
    full = _median_map(trend_runs["full"])
    rand = _median_map(trend_runs["random"])
    sel = _median_map(trend_runs["select"])
    ok = full >= rand - TIE_TOL and full >= sel - TIE_TOL
    _verdict(6, ok,
             f"median MAP full {full:.4f} vs random {rand:.4f} and select "
             f"{sel:.4f} (ties allowed within {TIE_TOL})")


# --- criterion 7: determinism and checkpoint round-trip ----------------------------

def test_criterion_7_determinism_and_resume(default_set, tmp_path):
    def fresh_full():
        return ExperimentConfig(b_in=12, b_out=8, m=2, base_epochs=2,
                                n0_epochs=1, n1_epochs=2, variant="full",
                                seed=11, backbone_sgd=DESK)

    # identical reruns serialize byte-identically
    a = TrainingRun(fresh_full(), default_set).run().report().to_json()
    b = TrainingRun(fresh_full(), default_set).run().report().to_json()
    rerun_ok = a == b

    # 3-epoch schedule: interrupt after every epoch, resume, compare
    def fresh_short():
        return ExperimentConfig(b_in=8, b_out=8, base_epochs=3,
                                variant="baseline", seed=11,
                                backbone_sgd=DESK)

    straight = TrainingRun(fresh_short(), default_set).run().report().to_json()
    resume_ok = True
    for stop in (1, 2):
        part = TrainingRun(fresh_short(), default_set).run(stop_after=stop)
        path = tmp_path / f"short{stop}.ckpt"
        save_checkpoint(part.to_checkpoint(), path)
        resumed = TrainingRun.from_checkpoint(load_checkpoint(path),
                                              default_set).run()
        resume_ok &= resumed.report().to_json() == straight

    # interruptions inside merge rounds (active and frozen stages)
    full_straight = TrainingRun(fresh_full(), default_set).run().report().to_json()
    for stop in (3, 4):
        part = TrainingRun(fresh_full(), default_set).run(stop_after=stop)
        path = tmp_path / f"full{stop}.ckpt"
        save_checkpoint(part.to_checkpoint(), path)
        resumed = TrainingRun.from_checkpoint(load_checkpoint(path),
                                              default_set).run()
        resume_ok &= resumed.report().to_json() == full_straight

    ok = rerun_ok and resume_ok
    _verdict(7, ok,
             f"byte-identical reruns {rerun_ok}, checkpoint resume matches "
             f"uninterrupted runs {resume_ok}")


# --- criterion 8: merge-granularity sensitivity -------------------------------------

def test_criterion_8_schedule_sensitivity(default_set):
    t0 = time.time()
    results = {}
    traces_ok = True
    for m in (2, 4, 8):
        cfg = ExperimentConfig(b_in=24, b_out=16, m=m, base_epochs=30,
                               variant="full", seed=1, backbone_sgd=DESK)
        report = TrainingRun(cfg, default_set).run().report()
        results[m] = report.final["map"]
        bits = [b for b, _ in report.bit_trace]
        traces_ok &= bits[0] == 24 and bits[-1] == 16
        traces_ok &= all(b2 < b1 for b1, b2 in zip(bits, bits[1:]))
        traces_ok &= report.final["effective_bits"] == 16
    elapsed = time.time() - t0
    ok = traces_ok and elapsed < TREND_BUDGET_S
    per_m = ", ".join(f"m={m}: MAP {v:.4f}" for m, v in results.items())
    _verdict(8, ok,
             f"{per_m}; monotone 24->16 traces {traces_ok}, "
             f"{elapsed:.0f}s of {TREND_BUDGET_S:.0f}s")

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the ablation-separation table.
"""

import math
import shutil
import time
from dataclasses import replace

import numpy as np
import pytest

from protofed.cli import _map_subruns, main
from protofed.config import ExperimentConfig
from protofed.losses import cross_entropy, gpcl_targets
from protofed.model import ModelParams, forward, init_params, params_from_layers
from protofed.numerics import keyed_rng
from protofed.prototypes import PrototypeSet, average_prototypes, ema_update, reweight

from conftest import BENCHMARK, SKEWED_VARIANT, run_experiment
from oracles import (
    DictPrototypeSet,
    OracleReport,
    Prototype,
    analytic_total_grads,
    apa_one_batch,
    dump_repro,
    finite_diff_grad,
    gpcl_one_batch,
    naive_fedavg_loop,
    naive_reweight,
    rel_error,
    total_objective,
)


def report(num: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def random_client_sets(rng, n_clients, n_classes, dim):
    sets = []
    for _ in range(n_clients):
        entries = {}
        for k in range(n_classes):
            if rng.random() < 0.8:
                entries[k] = Prototype(rng.normal(size=dim), int(rng.integers(1, 9)))
        if not entries:
            entries[int(rng.integers(n_classes))] = Prototype(rng.normal(size=dim), 1)
        sets.append(DictPrototypeSet(entries).to_dense(n_classes))
    return sets


def test_criterion_1_reweight_matches_naive_oracle(tmp_path):
    rng = np.random.default_rng(2024)
    start = time.time()
    max_abs = max_rel = 0.0
    for case in range(1000):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        d = int(rng.integers(2, 33))
        sets = random_client_sets(rng, m, k, d)
        got, rep = reweight(sets)
        naive = naive_reweight(sets)
        for cls, vec in naive.items():
            dev = float(np.max(np.abs(got.vectors[cls] - np.asarray(vec))))
            if dev > 1e-12:
                path = tmp_path / f"reweight_repro_{case}.json"
                dump_repro(
                    path,
                    {
                        "case": case,
                        "client_sets": [cs.to_json_dict() for cs in sets],
                        "class": cls,
                        "got": got.vectors[cls],
                        "naive": vec,
                    },
                )
                report(1, "reweighting correctness", False, f"repro at {path}")
            max_abs = max(max_abs, dev)
            scale = float(np.max(np.abs(vec))) or 1.0
            max_rel = max(max_rel, dev / scale)
        for cls, info in rep.per_class.items():
            assert abs(info.weights.sum() - 1.0) < 1e-9
            stack = np.stack([sets[i].vectors[cls] for i in info.clients])
            assert np.all(info.weights >= 0)
            assert np.all(got.vectors[cls] >= stack.min(axis=0) - 1e-9)
            assert np.all(got.vectors[cls] <= stack.max(axis=0) + 1e-9)
    elapsed = time.time() - start
    agreement = OracleReport(max_abs, max_rel, 1000)
    report(
        1,
        "reweighting correctness",
        agreement.max_abs_deviation <= 1e-12 and elapsed < 10.0,
        f"{agreement.case_count} instances, max abs dev {agreement.max_abs_deviation:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_equivariance_suite():
    rng = np.random.default_rng(77)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        d = int(rng.integers(2, 17))
        sets = random_client_sets(rng, m, k, d)
        base, base_rep = reweight(sets)

        c = rng.normal(size=d)
        shifted = [
            PrototypeSet(np.where(s.present[:, None], s.vectors + c, 0.0), s.support)
            for s in sets
        ]
        moved, moved_rep = reweight(shifted)
        for kk in np.flatnonzero(base.present):
            assert np.allclose(moved.vectors[kk], base.vectors[kk] + c, atol=1e-9)
            assert np.allclose(
                moved_rep.per_class[kk].weights, base_rep.per_class[kk].weights, atol=1e-9
            )

        s_pos = float(rng.uniform(0.2, 5.0))
        scaled = [PrototypeSet(s.vectors * s_pos, s.support) for s in sets]
        big, big_rep = reweight(scaled)
        for kk in np.flatnonzero(base.present):
            assert np.allclose(big.vectors[kk], base.vectors[kk] * s_pos, atol=1e-9)
            assert np.allclose(
                big_rep.per_class[kk].weights, base_rep.per_class[kk].weights, atol=1e-9
            )

        perm = rng.permutation(m)
        permuted = [sets[i] for i in perm]
        back, _ = reweight(permuted)
        avg_a = average_prototypes(sets)
        avg_b = average_prototypes(permuted)
        for kk in np.flatnonzero(base.present):
            assert np.allclose(back.vectors[kk], base.vectors[kk], atol=1e-9)
            assert np.allclose(avg_a.vectors[kk], avg_b.vectors[kk], atol=1e-9)
    report(2, "equivariance suite", True, "200 trials each, tol 1e-9")


def _loss_instance(rng, batch=6, dim=5, k=4):
    h = rng.normal(size=(batch, dim))
    h += np.sign(h.sum(axis=1, keepdims=True)) * 1e-2
    y = rng.integers(0, k, batch)
    protos = DictPrototypeSet(
        {c: Prototype(rng.normal(size=dim), 1) for c in range(k)}
    ).to_dense()
    return h, y, protos


def _model_instance(seed):
    """4-2-3, K=2 model with jittered biases so no feature norm collapses."""
    rng = np.random.default_rng(seed)
    for attempt in range(20):
        params = init_params(keyed_rng(seed * 37 + attempt, 1000), [4, 2, 3], 2)
        layers = [(w, b + 0.2 * rng.normal(size=b.shape)) for w, b in params.extractor]
        layers.append((params.classifier[0], params.classifier[1] + 0.2 * rng.normal(size=2)))
        params = params_from_layers(layers)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, 8)
        h = forward(params, x).acts[-1]
        if np.linalg.norm(h, axis=1).min() > 1e-2:
            d = params.feature_dim
            generalized = DictPrototypeSet(
                {c: Prototype(rng.normal(size=d), 1) for c in range(2)}
            ).to_dense()
            p_tilde = DictPrototypeSet(
                {c: Prototype(rng.normal(size=d), 1) for c in range(2)}
            ).to_dense()
            return params, x, y, generalized, p_tilde
    raise AssertionError("could not build a non-degenerate model instance")


def test_criterion_3_gradient_suite():
    start = time.time()
    worst = {"ce": 0.0, "gpcl": 0.0, "apa": 0.0, "backward": 0.0}

    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, 6)
        _, grad = cross_entropy(z, y)
        numeric = finite_diff_grad(lambda zz: cross_entropy(zz, y)[0], z.copy(), 1e-5)
        worst["ce"] = max(worst["ce"], rel_error(grad, numeric))

    rng = np.random.default_rng(6)
    for _ in range(100):
        h, y, protos = _loss_instance(rng)
        protos = gpcl_targets(protos)
        _, grad = gpcl_one_batch(h, y, protos, 0.2)
        numeric = finite_diff_grad(lambda hh: gpcl_one_batch(hh, y, protos, 0.2)[0], h.copy(), 1e-5)
        worst["gpcl"] = max(worst["gpcl"], rel_error(grad, numeric))

    rng = np.random.default_rng(7)
    for _ in range(100):
        h, y, protos = _loss_instance(rng)
        _, grad = apa_one_batch(h, y, protos)
        numeric = finite_diff_grad(lambda hh: apa_one_batch(hh, y, protos)[0], h.copy(), 1e-5)
        worst["apa"] = max(worst["apa"], rel_error(grad, numeric))

    for seed in range(100):
        params, x, y, generalized, p_tilde = _model_instance(seed)
        analytic = analytic_total_grads(params, x, y, generalized, p_tilde, tau=0.5)
        flat = params.flat.copy()

        def loss_at(v):
            return total_objective(
                ModelParams(v.copy(), params.shapes), x, y, generalized, p_tilde, 0.5
            )

        numeric = finite_diff_grad(loss_at, flat, 1e-5)
        worst["backward"] = max(worst["backward"], rel_error(analytic.flat, numeric))

    elapsed = time.time() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 60.0
    report(
        3,
        "gradient suite",
        ok,
        "worst rel err "
        + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_loss_anchors():
    h = np.array([[1.5, -2.0], [0.3, 0.9]])
    single = DictPrototypeSet({0: Prototype(np.array([1.0, 1.0]), 1)}).to_dense()
    single = gpcl_targets(single)
    loss, grad = gpcl_one_batch(h, [0, 0], single, 0.07)
    ok = loss == 0.0 and np.all(grad == 0.0)

    protos = DictPrototypeSet(
        {0: Prototype(np.array([2.0, 0.0]), 1), 1: Prototype(np.array([0.0, 3.0]), 1)}
    ).to_dense()
    protos = gpcl_targets(protos)
    loss_b1, _ = gpcl_one_batch(np.array([[5.0, 0.0]]), [0], protos, 1.0)
    ok = ok and abs(loss_b1 - math.log(1 + math.exp(-1))) < 1e-9

    pt = DictPrototypeSet({0: Prototype(np.array([1.0, 2.0]), 1)}).to_dense()
    apa, apa_grad = apa_one_batch(np.array([[1.0, 2.0]]), [0], pt)
    ok = ok and apa == 0.0 and np.all(apa_grad == 0.0)
    report(4, "closed-form loss anchors", ok, f"B=1 case {loss_b1:.9f}")


def test_criterion_5_ema_algebra():
    rng = np.random.default_rng(11)
    new = DictPrototypeSet({k: Prototype(rng.normal(size=6), 1) for k in range(3)})
    prev = DictPrototypeSet({k: Prototype(rng.normal(size=6), 1) for k in range(3)})
    new, prev = new.to_dense(), prev.to_dense()

    ok = True
    at_one = ema_update(new, prev, 1.0)
    at_zero = ema_update(new, prev, 0.0)
    for k in range(3):
        ok = ok and np.array_equal(at_one.vectors[k], new.vectors[k])
        ok = ok and np.array_equal(at_zero.vectors[k], prev.vectors[k])

    blended = ema_update(new, prev, 0.99)
    for k in range(3):
        expected = 0.99 * new.vectors[k] + 0.01 * prev.vectors[k]
        ok = ok and np.max(np.abs(blended.vectors[k] - expected)) < 1e-12
    report(5, "EMA algebra", ok)


def test_criterion_6_fedavg_degeneracy(fedavg_pair):
    fed_reports, naive_reports = fedavg_pair
    ok = len(fed_reports) == 30 and len(naive_reports) == 30
    for fed, naive in zip(fed_reports, naive_reports):
        ok = ok and fed.per_domain_accuracy == naive.per_domain_accuracy
        ok = ok and fed.average_accuracy == naive.average_accuracy
        ok = ok and fed.losses == naive.losses
    report(6, "FedAvg degeneracy (bitwise, 30 rounds)", ok)


def test_criterion_7_desk_scale_convergence(monkeypatch):
    def timed_run(seed):  # each run is timed by itself, inside its worker
        start = time.time()
        acc = run_experiment(replace(BENCHMARK, seed=seed)).summary["average_accuracy"]
        return acc, time.time() - start

    monkeypatch.setenv("PROTOFED_THREADS", "2")
    accs, times = zip(*_map_subruns(timed_run, list(range(5))))
    ok = all(acc >= 0.90 for acc in accs)
    ok = ok and max(times) < 120.0
    report(
        7,
        "desk-scale convergence",
        ok,
        f"final-5 avg acc {['%.3f' % a for a in accs]}, slowest run {max(times):.0f}s",
    )


def test_criterion_8_ablation_separation(monkeypatch):
    seeds = range(5)
    grid = {
        (False, False): dict(gpcl_enabled=False, apa_enabled=False, mixup_mode="off"),
        (True, False): dict(gpcl_enabled=True, apa_enabled=False),
        (False, True): dict(gpcl_enabled=False, apa_enabled=True),
        (True, True): dict(gpcl_enabled=True, apa_enabled=True),
    }
    worst = lambda s: min(float(v) for v in s["per_domain_accuracy"].values())

    # every run of the 25 and the 5 FedAvg oracle loops on two worker processes
    overrides = {**grid, "average": dict(aggregator_mode="average"), "naive": grid[False, False]}

    def job(item):
        seed, key = item
        cfg = replace(SKEWED_VARIANT, seed=seed, **overrides[key])
        return naive_fedavg_loop(cfg) if key == "naive" else run_experiment(cfg)

    monkeypatch.setenv("PROTOFED_THREADS", "2")
    items = [(seed, key) for seed in seeds for key in overrides]
    done = dict(zip(items, _map_subruns(job, items)))

    rows = []
    rw_avg_wins = rw_worst_wins = grid_wins = 0
    identity_ok = True
    for seed in seeds:
        summaries = {}
        for key in grid:
            res = done[seed, key]
            summaries[key] = res.summary
            if key == (False, False):
                naive = done[seed, "naive"]
                for fed, ref in zip(res.reports, naive):
                    if (
                        fed.per_domain_accuracy != ref.per_domain_accuracy
                        or fed.average_accuracy != ref.average_accuracy
                        or fed.losses != ref.losses
                    ):
                        identity_ok = False
        averaged = done[seed, "average"].summary
        full = summaries[(True, True)]
        rw_avg_wins += full["average_accuracy"] >= averaged["average_accuracy"]
        rw_worst_wins += worst(full) >= worst(averaged)
        grid_wins += full["average_accuracy"] >= summaries[(False, False)]["average_accuracy"]
        rows.append((seed, summaries, averaged))

    print()
    print("ablation separation on the skewed variant (5 of 8 clients in domain 0)")
    print("seed  off/off  on/off   off/on   on/on    avg-aggr  worst(rw)  worst(avg)")
    for seed, summaries, averaged in rows:
        print(
            f"{seed:4d}  "
            f"{summaries[(False, False)]['average_accuracy']:.4f}   "
            f"{summaries[(True, False)]['average_accuracy']:.4f}   "
            f"{summaries[(False, True)]['average_accuracy']:.4f}   "
            f"{summaries[(True, True)]['average_accuracy']:.4f}   "
            f"{averaged['average_accuracy']:.4f}    "
            f"{worst(summaries[(True, True)]):.4f}     "
            f"{worst(averaged):.4f}"
        )
    print(
        f"directional margins: reweight>=average {rw_avg_wins}/5, "
        f"worst-domain {rw_worst_wins}/5, (on,on)>=(off,off) {grid_wins}/5"
    )
    for label, wins in (
        ("reweight>=average", rw_avg_wins),
        ("worst-domain reweight>=average", rw_worst_wins),
        ("(on,on)>=(off,off)", grid_wins),
    ):
        if wins < 4:
            print(f"FLAG for investigation: {label} held in only {wins}/5 paired seeds")

    four_runs = all(len(summaries) == 4 for _, summaries, _ in rows)
    report(
        8,
        "ablation separation",
        identity_ok and four_runs,
        f"(off,off)=FedAvg identity hard check; margins {rw_avg_wins}/5, "
        f"{rw_worst_wins}/5, {grid_wins}/5 (flags above if < 4/5)",
    )


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "rounds = 3\nepochs = 2\nnum_classes = 3\nnum_domains = 2\n"
        "arch = 8, 12, 6\nper_class_count = 20\nclients_per_domain = 2, 1\n"
        "sampling_rate = 0.6\n",
        encoding="utf-8",
    )
    outputs = []
    for threads, sub in (("1", "a"), ("1", "b"), ("4", "c")):
        monkeypatch.setenv("PROTOFED_THREADS", threads)
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append(
            (
                (out / "summary.json").read_bytes(),
                (out / "rounds.jsonl").read_bytes(),
                (out / "model.bin").read_bytes(),
            )
        )
    # ablate forks its sub-run workers: every file it writes, at 1 and 4
    # threads, into one directory (config.resolved.json records it)
    ablations = []
    for threads in ("1", "4"):
        monkeypatch.setenv("PROTOFED_THREADS", threads)
        out = tmp_path / "ablate"
        shutil.rmtree(out, ignore_errors=True)
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = sorted(p for p in out.rglob("*") if p.is_file())
        ablations.append({p.relative_to(out).as_posix(): p.read_bytes() for p in files})
    ok = outputs[0] == outputs[1] == outputs[2] and ablations[0] == ablations[1]
    report(9, "determinism incl. PROTOFED_THREADS>1", ok, f"ablate: {len(ablations[0])} files")


def test_criterion_10_beta_sampler_deciles(beta_draws):
    from scipy.special import betaincinv

    worst_dev = 0.0
    for alpha in (0.4, 2.0):
        draws = np.sort(beta_draws(alpha))
        for p in np.arange(0.1, 0.95, 0.1):
            x_p = betaincinv(alpha, alpha, p)
            ecdf = np.searchsorted(draws, x_p, side="right") / draws.size
            worst_dev = max(worst_dev, abs(float(ecdf) - float(p)))
    report(
        10,
        "beta sampler decile CDF",
        worst_dev < 0.005,
        f"worst |ecdf - p| = {worst_dev:.4f} over 1e6 draws",
    )

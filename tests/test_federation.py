import hashlib
import shutil
from dataclasses import replace

import numpy as np
import pytest

from protofed import cli
from protofed.config import ExperimentConfig
from protofed.datagen import SampleSet, make_domains, partition, save_csv
from protofed.federation import (
    ClientState,
    Run,
    ServerState,
    aggregate_params,
    build_problem,
    evaluate,
    local_updates,
    run_experiments,
    run_round,
)
from protofed.model import ModelParams, forward, init_params, params_from_layers
from protofed.numerics import keyed_rng

from conftest import run_experiment

TINY = ExperimentConfig(
    rounds=2,
    epochs=2,
    num_classes=3,
    num_domains=2,
    arch=(8, 12, 6),
    per_class_count=30,
    clients_per_domain=(2, 1),
    sampling_rate=0.6,
)


def toy_client(seed=0, k=2, dim=8, per_class=60, domain=0):
    data = make_domains(k, 2, dim, per_class, keyed_rng(seed, 50), noise_sigma=0.2)[domain]
    return ClientState(0, data, keyed_rng(seed, 0))


def toy_params(seed=0, k=2, dim=8):
    return init_params(keyed_rng(seed, 51), [dim, 12, 6], k)


def updates(clients, global_params, generalized, cfg):
    """local_updates of one run alone: its (M, P) parameters, M local
    prototype sets and (3, M) loss means."""
    [result] = local_updates([Run(cfg, clients, {}, ServerState(0, global_params, generalized))])
    return result


def one_round(server, clients, test_sets, cfg):
    """run_round of one run alone: its next server state and report."""
    [result] = run_round([Run(cfg, clients, test_sets, server)])
    return result


def solo_update(client, global_params, generalized, cfg):
    """local_updates on one client alone: its trained parameters, local
    prototypes and (3,) mean CE, GPCL and APA."""
    params, [protos], means = updates([client], global_params, generalized, cfg)
    assert params.flat.shape == (1, global_params.flat.size) and means.shape == (3, 1)
    return ModelParams(params.flat[0], params.shapes), protos, means[:, 0]


def stack(*client_params):
    """The (M, P) stack of the given models, one per row."""
    return ModelParams(np.stack([p.flat for p in client_params]), client_params[0].shapes)


class TestLocalUpdate:
    def test_lr_zero_keeps_params_and_means_initial_features(self):
        client = toy_client()
        cfg = replace(
            TINY,
            epochs=1,
            batch_size=10_000,
            lr=0.0,
            weight_decay=0.0,
            gpcl_enabled=False,
            apa_enabled=False,
            mixup_mode="off",
            num_classes=2,
        )
        params = toy_params()
        trained, protos, (_, gpcl, apa) = solo_update(client, params, None, cfg)
        assert np.array_equal(trained.flat, params.flat)
        h = forward(params, client.data.x).acts[-1]
        for k in np.flatnonzero(protos.present):
            expected = h[client.data.labels == k].mean(axis=0)
            assert np.allclose(protos.vectors[k], expected, atol=1e-12)
        assert gpcl == 0.0 and apa == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_separable_toy_training_accuracy(self, seed):
        client = toy_client(seed=seed)
        cfg = replace(TINY, epochs=10, num_classes=2)
        trained, _, _ = solo_update(client, toy_params(seed=seed), None, cfg)
        logits = forward(trained, client.data.x).logits_2d
        acc = float(np.mean(np.argmax(logits, axis=1) == client.data.labels))
        assert acc >= 0.95

    def test_bitwise_deterministic(self):
        cfg = replace(TINY, num_classes=2)
        a_params, a_protos, a_means = solo_update(toy_client(3), toy_params(3), None, cfg)
        b_params, b_protos, b_means = solo_update(toy_client(3), toy_params(3), None, cfg)
        assert np.array_equal(a_params.flat, b_params.flat)
        for k in np.flatnonzero(a_protos.present):
            assert np.array_equal(a_protos.vectors[k], b_protos.vectors[k])
        assert a_means.tolist() == b_means.tolist()

    def test_batch_size_clamped(self):
        client = toy_client()
        cfg = replace(TINY, batch_size=10**6, num_classes=2, epochs=1)
        solo_update(client, toy_params(), None, cfg)  # must not raise


class TestAggregateParams:
    def test_single_client_identity(self):
        p = init_params(keyed_rng(0, 0), [4, 3], 2)
        out = aggregate_params(stack(p), [7])
        assert out.shapes == p.shapes and np.array_equal(p.flat, out.flat)

    def test_opposite_params_cancel(self):
        p = init_params(keyed_rng(1, 0), [4, 3], 2)
        neg = ModelParams(-p.flat, p.shapes)
        out = aggregate_params(stack(p, neg), [5, 5])
        assert np.allclose(out.flat, 0.0, atol=1e-18)

    def test_weighted_scalar_case(self):
        base = params_from_layers([(np.array([[0.0]]), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2))])
        four = params_from_layers([(np.array([[4.0]]), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2))])
        out = aggregate_params(stack(base, four), [1, 3])
        assert out.extractor[0][0][0, 0] == pytest.approx(3.0, abs=0)

    def test_equal_counts_is_mean(self):
        ps = [init_params(keyed_rng(s, 0), [4, 3], 2) for s in range(4)]
        out = aggregate_params(stack(*ps), [5, 5, 5, 5])
        mean = np.mean([p.flat for p in ps], axis=0)
        assert np.allclose(out.flat, mean, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        # the number of client rows must equal the number of counts
        a = init_params(keyed_rng(0, 0), [4, 3], 2)
        b = init_params(keyed_rng(1, 0), [4, 3], 2)
        for counts in ([1], [1, 1, 1]):
            with pytest.raises(ValueError, match="one sample count per client row"):
                aggregate_params(stack(a, b), counts)
        # a single model's 1-D vector is not a stack of rows
        with pytest.raises(ValueError, match="one sample count per client row"):
            aggregate_params(a, [1])

    def test_bad_counts_rejected(self):
        p = init_params(keyed_rng(0, 0), [4, 3], 2)
        with pytest.raises(ValueError):
            aggregate_params(stack(p), [0])
        with pytest.raises(ValueError):
            aggregate_params(ModelParams(np.empty((0, p.flat.size)), p.shapes), [])


class TestEvaluate:
    def test_tie_break_lowest_index(self):
        data = make_domains(2, 1, 8, 20, keyed_rng(0, 52), noise_sigma=0.1)[0]
        zero = ModelParams(np.zeros(4 * 8 + 4 + 2 * 4 + 2), [(4, 8), (2, 4)])
        out = evaluate(zero, {0: data})
        # constant logits predict class 0 everywhere; labels are balanced
        assert out == {0: 0.5}

    def test_perfect_model_scores_one(self):
        data = make_domains(3, 1, 8, 20, keyed_rng(1, 52), noise_sigma=0.1)[0]
        params = init_params(keyed_rng(2, 52), [8, 16, 8], 3)
        preds = np.argmax(forward(params, data.x).logits_2d, axis=1)
        relabeled = replace_labels(data, preds)
        out = evaluate(params, {0: relabeled})
        assert out == {0: 1.0}

    def test_chance_level_for_random_models(self):
        data = make_domains(5, 4, 16, 50, keyed_rng(3, 52))
        accs = []
        for s in range(20):
            params = init_params(keyed_rng(s, 53), [16, 32, 16], 5)
            per_domain = evaluate(params, data)
            assert sorted(per_domain) == [0, 1, 2, 3]
            accs.append(sum(per_domain.values()) / len(per_domain))
        assert abs(np.mean(accs) - 0.2) < 0.05

    def test_empty_test_set_rejected(self):
        data = make_domains(2, 1, 8, 5, keyed_rng(0, 52))[0]
        with pytest.raises(ValueError):
            evaluate(init_params(keyed_rng(0, 0), [8, 4], 2), {0: data.take(np.array([], dtype=int))})


def replace_labels(data, labels):
    from protofed.datagen import SampleSet

    return SampleSet(data.x, np.asarray(labels, dtype=np.int64), data.domains)


class TestRunRound:
    def test_single_client_round(self):
        cfg = replace(TINY, clients_per_domain=(1,), num_domains=1, beta=1.0)
        clients, test_sets, theta0 = build_problem(cfg)
        server = ServerState(0, theta0, None)
        local_params, local_protos, _ = solo_update(clients[0], theta0, None, cfg)
        # fresh client (same rng stream) for the round itself
        clients2, _, _ = build_problem(cfg)
        new_server, report = one_round(server, clients2, test_sets, cfg)
        assert np.array_equal(new_server.global_params.flat, local_params.flat)
        for k in np.flatnonzero(local_protos.present):
            assert np.array_equal(new_server.generalized.vectors[k], local_protos.vectors[k])
        assert new_server.round == 1 and report.round == 0

    def test_aggregator_modes_diverge(self):
        cfg = replace(TINY, rounds=3)
        rw = run_experiment(replace(cfg, aggregator_mode="reweight", beta=1.0))
        av = run_experiment(replace(cfg, aggregator_mode="average"))
        k = np.flatnonzero(rw.final_generalized.present)[0]
        assert not np.allclose(
            rw.final_generalized.vectors[k], av.final_generalized.vectors[k], atol=1e-12
        )

    def test_collection_order_invariance(self):
        cfg = TINY
        clients, test_sets, theta0 = build_problem(cfg)
        server = ServerState(0, theta0, None)
        _, report_sorted = one_round(server, clients, test_sets, cfg)

        clients2, _, _ = build_problem(cfg)
        shuffled = [clients2[i] for i in (2, 0, 1)]
        server2 = ServerState(0, theta0, None)
        _, report_shuffled = one_round(server2, shuffled, test_sets, cfg)
        assert report_sorted.per_domain_accuracy == report_shuffled.per_domain_accuracy
        assert report_sorted.losses == report_shuffled.losses


class TestBuildProblem:
    def test_data_step_bytes_pinned(self):
        # sha256 of every array the data step hands to training and
        # evaluation (make_domains, partition) for TINY at seed 0: any
        # change to the draws, their order or the arithmetic changes it
        clients, test_sets, _ = build_problem(TINY)
        assert TINY.seed == 0
        assert [c.client_id for c in clients] == [0, 1, 2]
        digest = hashlib.sha256()
        for s in [c.data for c in clients] + [test_sets[d] for d in sorted(test_sets)]:
            for a in (s.x, s.labels, s.domains):
                digest.update(a.tobytes())
        expected = "14762bbcf01598b21646509d42ae4e5189167040e308fb5a01fc4474fdca8ed1"
        assert digest.hexdigest() == expected


class TestRunExperiment:
    def test_one_round_one_report(self):
        res = run_experiment(replace(TINY, rounds=1, epochs=1, per_class_count=10))
        assert len(res.reports) == 1
        assert res.summary["rounds_total"] == 1
        assert res.summary["summary_window"] == 1

    def test_deterministic_report_stream(self):
        a = run_experiment(TINY)
        b = run_experiment(TINY)
        assert [r.to_json_dict() for r in a.reports] == [r.to_json_dict() for r in b.reports]

    def test_threads_do_not_change_results(self, monkeypatch):
        # sweep/ablate run each sub-run in a worker process forked by the CLI
        # when PROTOFED_THREADS > 1; there it must match the in-process run
        # bitwise. The workers run first, so they inherit no finished run.
        from protofed.cli import _map_subruns

        monkeypatch.setenv("PROTOFED_THREADS", "2")
        pooled = _map_subruns(run_experiment, [TINY, TINY])
        a = run_experiment(TINY)
        for b in pooled:
            assert [r.to_json_dict() for r in a.reports] == [r.to_json_dict() for r in b.reports]
            assert a.final_params.shapes == b.final_params.shapes
            assert np.array_equal(a.final_params.flat, b.final_params.flat)

    def test_summary_window_caps_at_five(self):
        res = run_experiment(replace(TINY, rounds=7, epochs=1, per_class_count=10))
        assert res.summary["summary_window"] == 5

    def test_round_callback_streams(self):
        seen = []
        run_experiment(replace(TINY, rounds=2), round_callback=lambda r: seen.append(r.round))
        assert seen == [0, 1]


class TestNaiveLoopStructure:
    def test_single_client_equals_centralized_sgd(self):
        from oracles import naive_fedavg_loop
        from protofed.losses import cross_entropy
        from protofed.model import backward, sgd_step
        from protofed.numerics import STREAM_DATA, STREAM_INIT

        cfg = replace(
            TINY,
            rounds=2,
            epochs=2,
            num_domains=1,
            clients_per_domain=(1,),
            gpcl_enabled=False,
            apa_enabled=False,
            mixup_mode="off",
        )
        reports = naive_fedavg_loop(cfg)

        # centralized reference: continuous SGD on the single client's data
        rng_data = keyed_rng(cfg.seed, STREAM_DATA)
        domain_data = make_domains(
            cfg.num_classes, 1, cfg.input_dim, cfg.per_class_count, rng_data,
            noise_sigma=cfg.data_noise, anchor_scale=cfg.data_anchor_scale,
            shift=cfg.data_shift,
        )
        [data], test_sets = partition(domain_data, {0: 1}, cfg.sampling_rate, rng_data)
        params = init_params(keyed_rng(cfg.seed, STREAM_INIT), list(cfg.arch), cfg.num_classes)
        client_rng = keyed_rng(cfg.seed, 0)
        n, bs = len(data), min(cfg.batch_size, len(data))
        for round_idx in range(cfg.rounds):
            for _ in range(cfg.epochs):
                order = client_rng.permutation(n)
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    trace = forward(params, data.x[idx])
                    _, dz = cross_entropy(trace.logits_2d, data.labels[idx])
                    grads = backward(params, trace, dz, np.zeros_like(trace.acts[-1]))
                    params = sgd_step(params, grads, cfg.lr, cfg.weight_decay)
            preds = np.argmax(forward(params, test_sets[0].x).logits_2d, axis=1)
            acc = int((preds == test_sets[0].labels).sum()) / len(test_sets[0])
            assert reports[round_idx].per_domain_accuracy[0] == acc

    def test_equal_clients_aggregate_to_their_solo_update(self):
        cfg = replace(TINY, num_classes=2)
        base, params = toy_client(seed=5), toy_params(seed=5)
        twin_a = ClientState(0, base.data, keyed_rng(5, 0))
        twin_b = ClientState(1, base.data, keyed_rng(5, 0))
        trained, _, _ = updates([twin_a, twin_b], params, None, cfg)
        assert np.array_equal(trained.flat[0], trained.flat[1])
        merged = aggregate_params(trained, [len(base.data)] * 2)
        assert np.array_equal(merged.flat, trained.flat[0])


class TestFedAvgDegeneracy:
    def test_bitwise_equal_to_naive_loop(self, fedavg_pair):
        fed_reports, naive_reports = fedavg_pair
        assert len(fed_reports) == len(naive_reports) == 30
        for fed, naive in zip(fed_reports, naive_reports):
            assert fed.round == naive.round
            assert fed.per_domain_accuracy == naive.per_domain_accuracy
            assert fed.average_accuracy == naive.average_accuracy
            assert fed.losses.ce == naive.losses.ce
            assert fed.losses.total == naive.losses.total
            assert fed.losses.gpcl == 0.0 and fed.losses.apa == 0.0


def _fresh_clients(cfg, sizes=None):
    """build_problem's clients with fresh RNG streams; sizes, when given,
    cuts each client's data to that many samples (ragged clients)."""
    clients, _, theta0 = build_problem(cfg)
    if sizes is not None:
        clients = [
            ClientState(c.client_id, c.data.take(np.arange(n)), c.rng)
            for c, n in zip(clients, sizes)
        ]
    return clients, theta0


def _seed_prototypes(clients, params):
    """Generalized prototypes from the initial model, so GPCL is active."""
    from protofed.prototypes import average_prototypes, local_prototypes

    k = params.shapes[-1][0]
    return average_prototypes(
        [local_prototypes(forward(params, c.data.x).acts[-1], c.data.labels, k) for c in clients]
    )


def _assert_same_row(a, i, b, j):
    """Client row i of one local_updates result equals row j of another,
    bitwise: parameters, local prototypes and loss means."""
    (a_params, a_protos, a_means), (b_params, b_protos, b_means) = a, b
    assert a_params.shapes == b_params.shapes
    assert np.array_equal(a_params.flat[i], b_params.flat[j])
    assert np.array_equal(a_protos[i].present, b_protos[j].present)
    for k in np.flatnonzero(a_protos[i].present):
        assert np.array_equal(a_protos[i].vectors[k], b_protos[j].vectors[k])
        assert a_protos[i].support[k] == b_protos[j].support[k]
    assert a_means[:, i].tolist() == b_means[:, j].tolist()


LOCKSTEP = replace(TINY, clients_per_domain=(3, 2), epochs=2, batch_size=8)


class TestLockstep:
    """Training every client in one stacked update must equal training each
    client alone, bitwise."""

    @pytest.mark.parametrize("mixup_mode", ["off", "feature", "input"])
    # ragged: short last batches, a batch of one, a client smaller than the
    # batch, four size blocks. interleaved: sizes alternate in client-id
    # order, so the blocks are clients (0, 2, 4) and (1, 3).
    @pytest.mark.parametrize(
        "sizes",
        [None, (23, 8, 17, 5, 23), (16, 24, 16, 24, 16)],
        ids=["equal", "ragged", "interleaved"],
    )
    def test_all_clients_equal_each_alone(self, mixup_mode, sizes):
        cfg = replace(LOCKSTEP, mixup_mode=mixup_mode)
        clients, theta0 = _fresh_clients(cfg, sizes)
        generalized = _seed_prototypes(clients, theta0)
        if sizes is None:  # synthetic clients are all the same size
            assert len({len(c.data) for c in clients}) == 1
        together = updates(clients, theta0, generalized, cfg)
        params, protos, means = together
        assert params.flat.shape == (len(clients), theta0.flat.size)
        assert len(protos) == len(clients) and means.shape == (3, len(clients))
        for i in range(len(clients)):
            alone_clients, _ = _fresh_clients(cfg, sizes)
            alone = updates([alone_clients[i]], theta0, generalized, cfg)
            _assert_same_row(together, i, alone, 0)

    @pytest.mark.parametrize("mixup_mode", ["feature", "input"])
    def test_streams_draw_in_step_order(self, mixup_mode):
        """The epoch's pairs are drawn at its start, yet each client's stream
        draws as a step-by-step update would: the epoch's permutation, then
        each step's gammas and ranks in step order. A replay of that order
        ends every stream in the same state."""
        from protofed.prototypes import mixup_pairs

        cfg = replace(LOCKSTEP, mixup_mode=mixup_mode)
        sizes = (23, 8, 17, 5, 23)  # short last batches of 7 and 1 rows
        clients, theta0 = _fresh_clients(cfg, sizes)
        updates(clients, theta0, _seed_prototypes(clients, theta0), cfg)
        for trained, c in zip(clients, _fresh_clients(cfg, sizes)[0]):
            n = len(c.data)
            b = min(cfg.batch_size, n)
            for _ in range(cfg.epochs):
                labels = c.data.labels[c.rng.permutation(n)]
                for start in range(0, n, b):
                    mixup_pairs(labels[start : start + b], c.rng, cfg.alpha)
            assert c.rng.bit_generator.state["state"]["counter"].tolist() == (
                trained.rng.bit_generator.state["state"]["counter"].tolist()
            )
            assert c.rng.random() == trained.rng.random()

    @pytest.mark.parametrize("mixup_mode", ["off", "input"])
    def test_global_params_left_unchanged(self, mixup_mode):
        # ragged sizes: several blocks, one of a single client
        cfg = replace(LOCKSTEP, mixup_mode=mixup_mode)
        clients, theta0 = _fresh_clients(cfg, (23, 8, 17, 5, 23))
        generalized = _seed_prototypes(clients, theta0)
        before = theta0.flat.copy()
        params, _, _ = updates(clients, theta0, generalized, cfg)
        assert theta0.flat.tobytes() == before.tobytes()
        assert not np.shares_memory(params.flat, theta0.flat)
        for row in params.flat:
            assert not np.array_equal(row, before)

    def test_results_in_client_id_order(self):
        clients, theta0 = _fresh_clients(LOCKSTEP, (23, 8, 17, 5, 23))
        forward_order = updates(clients, theta0, None, LOCKSTEP)
        clients, _ = _fresh_clients(LOCKSTEP, (23, 8, 17, 5, 23))
        reverse_order = updates(clients[::-1], theta0, None, LOCKSTEP)
        for i in range(len(clients)):
            _assert_same_row(forward_order, i, reverse_order, i)

    def test_first_failing_step_then_lowest_client(self):
        # FedAvg mode, one epoch, batches of 4: a NaN input row fails the
        # step whose batch holds it. One block: client 0 fails at step 2,
        # clients 1 and 2 at step 1. Two blocks: client 0, in the first
        # (12-row) block, fails at step 2, and client 1, alone in the 8-row
        # block, at step 1, so raising on the first block's failure would
        # name client 0. Either way the report names client 1 at step 1.
        cfg = replace(LOCKSTEP, epochs=1, batch_size=4, gpcl_enabled=False,
                      apa_enabled=False, mixup_mode="off")
        for sizes, fails in (
            ((12, 12, 12, 12, 12), ((0, 9), (1, 5), (2, 4))),
            ((12, 8, 12), ((0, 9), (1, 5))),
        ):
            clients, theta0 = _fresh_clients(cfg, sizes)
            for c, position in ((clients[i], position) for i, position in fails):
                row = keyed_rng(cfg.seed, c.client_id).permutation(len(c.data))[position]
                c.data.x[row] = np.nan
            match = r"^round 0, client 1, local step 1: ce loss is nan$"
            with pytest.raises(FloatingPointError, match=match):
                updates(clients, theta0, None, cfg)

    def test_diverged_ce_names_bound(self):
        cfg = replace(TINY, lr=1e6, gpcl_enabled=False, apa_enabled=False, mixup_mode="off")
        bound = r"ce loss is \S+, above MAX_STEP_CE = 1e\+06"
        with pytest.raises(FloatingPointError, match=bound):
            run_experiment(cfg)


BUNDLE = replace(TINY, rounds=3, batch_size=8)


def _bundle_configs(tmp_path, mixup_mode):
    """Four configs of one bundle on a CSV of TINY-shaped data with every
    third row of domain 1 dropped: clients 0 and 1 hold 43 rows and client
    2 holds 28, so at batch size 8 there are two size blocks, each with a
    short last batch. The runs differ in seed, gpcl_enabled, tau,
    aggregator_mode and beta; the first two share seed 0."""
    domains = make_domains(3, 2, 8, 30, keyed_rng(9, 50), noise_sigma=0.3)
    domains[1] = domains[1].take(np.flatnonzero(np.arange(len(domains[1])) % 3 != 0))
    merged = SampleSet(*(np.concatenate([getattr(domains[d], name) for d in (0, 1)])
                         for name in ("x", "labels", "domains")))
    save_csv(merged, tmp_path / "data.csv")
    base = replace(BUNDLE, csv_path=str(tmp_path / "data.csv"), mixup_mode=mixup_mode)
    return [
        base,
        replace(base, gpcl_enabled=False, aggregator_mode="average"),
        replace(base, seed=1, tau=0.2, beta=1.0),
        replace(base, seed=2, tau=0.5, beta=0.0, aggregator_mode="average"),
    ]


def _assert_same_result(a, b):
    """Two ExperimentResults agree bitwise: reports, final parameters and
    final generalized prototypes."""
    assert [repr(r.to_json_dict()) for r in a.reports] == [repr(r.to_json_dict()) for r in b.reports]
    assert a.summary == b.summary
    assert a.final_params.flat.tobytes() == b.final_params.flat.tobytes()
    assert a.final_generalized.vectors.tobytes() == b.final_generalized.vectors.tobytes()
    assert a.final_generalized.support.tolist() == b.final_generalized.support.tolist()


class TestBundle:
    """Training the runs of a bundle together, one stack per size block,
    must equal training each run alone, bitwise."""

    @pytest.mark.parametrize("mixup_mode", ["off", "feature", "input"])
    def test_each_run_equals_it_alone(self, tmp_path, mixup_mode):
        cfgs = _bundle_configs(tmp_path, mixup_mode)
        clients, _, _ = build_problem(cfgs[0])
        assert [len(c.data) for c in clients] == [43, 43, 28]
        together = run_experiments(cfgs)
        assert len(together) == len(cfgs)
        for cfg, result in zip(cfgs, together):
            _assert_same_result(result, run_experiment(cfg))

    @pytest.mark.parametrize("mixup_mode", ["off", "input"])
    def test_shared_streams_draw_once_per_round(self, mixup_mode):
        # two runs on the same client objects (one seed): after one bundled
        # round every stream is where one run's round alone leaves it
        cfg = replace(LOCKSTEP, mixup_mode=mixup_mode)
        sizes = (23, 8, 17, 5, 23)
        _, test_sets, _ = build_problem(cfg)
        clients, theta0 = _fresh_clients(cfg, sizes)
        generalized = _seed_prototypes(clients, theta0)
        server = ServerState(1, theta0, generalized)
        mate = replace(cfg, gpcl_enabled=False, aggregator_mode="average")
        bundled = run_round([Run(cfg, clients, test_sets, server),
                             Run(mate, clients, test_sets, server)])
        alone_clients, _ = _fresh_clients(cfg, sizes)
        alone = one_round(server, alone_clients, test_sets, cfg)
        for c, a in zip(clients, alone_clients):
            counter = [x.rng.bit_generator.state["state"]["counter"].tolist() for x in (c, a)]
            assert counter[0] == counter[1]
            assert c.rng.random(4).tolist() == a.rng.random(4).tolist()
        (bundled_server, bundled_report), _ = bundled
        assert bundled_server.global_params.flat.tobytes() == alone[0].global_params.flat.tobytes()
        assert repr(bundled_report.to_json_dict()) == repr(alone[1].to_json_dict())
        mate_clients, _ = _fresh_clients(cfg, sizes)
        mate_alone = one_round(server, mate_clients, test_sets, mate)
        assert bundled[1][0].global_params.flat.tobytes() == (
            mate_alone[0].global_params.flat.tobytes()
        )

    def test_failing_run_leaves_the_others(self, tmp_path):
        # the least positive tau overflows GPCL as soon as it starts, in
        # round 1: the bundle stops and raises that failure. The CLI's
        # sub-run worker then trains each config alone, so the run fails
        # with its own message and its bundle-mates, one of them on the
        # same seed, end with the summaries and files they have alone
        cfgs = [replace(TINY, rounds=3), replace(TINY, rounds=3, tau=5e-324),
                replace(TINY, rounds=3, seed=1, aggregator_mode="average")]
        where = "round 1, client 0, local step 0: gpcl loss is nan"
        with pytest.raises(FloatingPointError, match=f"^{where}$"):
            run_experiment(cfgs[1])
        with pytest.raises(FloatingPointError, match=f"^{where}$"):
            run_experiments(cfgs)

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        dirs = [tmp_path / f"run{i}" for i in range(len(cfgs))]
        rows = cli._train([(cfg, [d]) for cfg, d in zip(cfgs, dirs)])
        assert rows[1] == where
        bundled = [tree(d) for d in dirs]
        for i, (cfg, d) in enumerate(zip(cfgs, dirs)):
            shutil.rmtree(d)
            assert cli._train([(cfg, [d])]) == [rows[i]]
            assert tree(d) == bundled[i]
        for i in (0, 2):
            assert rows[i] == run_experiment(cfgs[i]).summary

    def test_runs_outside_one_bundle_rejected(self):
        with pytest.raises(ValueError, match="may differ only in seed, gpcl_enabled"):
            run_experiments([TINY, replace(TINY, lr=0.02)])

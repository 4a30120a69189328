import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protofed.numerics import keyed_rng
from protofed.prototypes import (
    DEGENERATE_DISTANCE,
    PrototypeSet,
    average_prototypes,
    ema_update,
    local_prototypes,
    mix_rows,
    mixup_pairs,
    reweight,
)
from protofed.cli import save_prototypes_json

from oracles import DictPrototypeSet, Prototype, naive_mixup_pairs, naive_reweight


def pset(d: dict) -> PrototypeSet:
    return DictPrototypeSet(
        {k: Prototype(np.asarray(v, dtype=np.float64), 1) for k, v in d.items()}
    ).to_dense()


def random_client_sets(rng, n_clients, n_classes, dim, p_present=0.85):
    sets = []
    for _ in range(n_clients):
        entries = {}
        for k in range(n_classes):
            if rng.random() < p_present:
                entries[k] = Prototype(rng.normal(size=dim), int(rng.integers(1, 9)))
        if not entries:
            entries[0] = Prototype(rng.normal(size=dim), 1)
        sets.append(DictPrototypeSet(entries).to_dense(n_classes))
    return sets


class TestLocalPrototypes:
    def test_single_sample(self):
        h = np.array([[2.0, -1.0]])
        out = local_prototypes(h, [3], 4)
        assert np.array_equal(out.vectors[3], h[0])
        assert out.support[3] == 1

    def test_mean_of_two(self):
        out = local_prototypes(np.array([[0.0, 0.0], [2.0, 2.0]]), [0, 0], 1)
        assert np.array_equal(out.vectors[0], [1.0, 1.0])
        assert out.support[0] == 2

    def test_group_by_mean_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(50, 6))
        y = rng.integers(0, 3, 50)
        out = local_prototypes(h, y, 3)
        for k in range(3):
            rows = [h[i] for i in range(50) if y[i] == k]
            naive = [sum(r[j] for r in rows) / len(rows) for j in range(6)]
            assert np.allclose(out.vectors[k], naive, atol=1e-12)
            assert out.support[k] == len(rows)

    @pytest.mark.parametrize("shape", [(1, 32, 8), (8, 32, 16), (5, 1, 4), (1, 6), (400, 16)])
    def test_bitwise_class_means(self, shape):
        # per member and class, bitwise h[y == k].mean(axis=0) and its count:
        # G = 1, n = 1, a member of one class, absent classes (3 and 4 of K = 5),
        # the per-round (N, d) shape, and a column of -0.0 (numpy means it to +0.0)
        rng = np.random.default_rng(shape[-2])
        h = rng.normal(size=shape)
        y = rng.integers(0, 3, shape[:-1])
        if y.ndim == 2:
            y[0] = 2  # member 0 holds one class
        h[..., 0] = np.where(y == 1, -0.0, h[..., 0])
        out = local_prototypes(h, y, 5)
        hs, ys = (h, y) if h.ndim == 3 else (h[None], y[None])
        vectors = out.vectors.reshape(len(hs), 5, -1)
        support = out.support.reshape(len(hs), 5)
        for g in range(len(hs)):
            for k in range(5):
                rows = hs[g][ys[g] == k]
                assert support[g, k] == len(rows)
                want = rows.mean(axis=0) if len(rows) else np.zeros(shape[-1])
                assert vectors[g, k].tobytes() == want.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            local_prototypes(np.zeros((0, 3)), [], 2)


def mixed_prototypes(h, y, rng, alpha):
    """The federation's feature-mixup path: draw pairs, mix rows, group by
    each sample's original label."""
    gammas, partners = mixup_pairs(y, rng, alpha)
    return local_prototypes(mix_rows(h, gammas, partners), y, int(np.max(y)) + 1)


class TestMixupFeature:
    ROWS = np.array([[1.0, 2.0], [5.0, 6.0], [-3.0, 4.0]])

    def test_gamma_one(self):
        out = mix_rows(self.ROWS, np.array([1.0, 1.0, 1.0]), np.array([1, 0, -1]))
        assert np.array_equal(out, self.ROWS)  # partner -1 comes with gamma 1.0

    def test_gamma_zero(self):
        out = mix_rows(self.ROWS, np.array([0.0, 0.0, 1.0]), np.array([1, 2, -1]))
        assert np.array_equal(out, self.ROWS[[1, 2, 2]])

    def test_interpolation(self):
        rows = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = mix_rows(rows, np.array([0.25, 1.0]), np.array([1, -1]))
        assert np.allclose(out[0], [0.5, 1.5], atol=1e-15)
        assert np.array_equal(out[1], rows[1])

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=40)
    def test_stays_on_segment(self, gamma):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = mix_rows(rows, np.array([gamma, 1.0]), np.array([1, -1]))[0]
        assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


class TestAugmentedPrototypes:
    def test_single_class_pool_falls_back(self):
        h = np.random.default_rng(1).normal(size=(6, 4))
        y = np.zeros(6, dtype=int)
        out = mixed_prototypes(h, y, keyed_rng(0, 0), 0.4)
        ref = local_prototypes(h, y, 1)
        assert np.array_equal(out.vectors[0], ref.vectors[0])

    def test_gamma_forced_one_equals_local(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, 10)
        _, partners = mixup_pairs(y, keyed_rng(0, 0), 0.4)
        out = local_prototypes(mix_rows(h, np.ones(10), partners), y, 3)
        ref = local_prototypes(h, y, 3)
        for k in np.flatnonzero(ref.present):
            assert np.allclose(out.vectors[k], ref.vectors[k], atol=0)

    # unsorted labels over 3+ classes exercise the rank-to-partner mapping;
    # the last batch has one class and draws nothing
    REPLAY_LABELS = [
        [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        [2, 0, 1, 2, 1, 0, 0, 2, 1, 2],
        [3, 1, 4, 1, 0, 3, 2, 4, 0, 1, 2, 3],
        [1, 1, 1, 1, 1, 1],
    ]

    def test_matches_draw_replay_oracle(self):
        # replay the documented draw order: all gammas, then all partner ranks
        for labels in self.REPLAY_LABELS:
            y = np.array(labels)
            h = np.random.default_rng(3).normal(size=(y.size, 4))
            out = mixed_prototypes(h, y, keyed_rng(42, 5), 0.4)

            gammas, partners = naive_mixup_pairs(y, 42, 5, 0.4)
            mixed = np.array([
                h[i] if j < 0 else g * h[i] + (1 - g) * h[j]
                for i, (g, j) in enumerate(zip(gammas, partners))
            ])
            for k in np.unique(y):
                naive = mixed[y == k].mean(axis=0)
                assert np.allclose(out.vectors[k], naive, atol=1e-12), (labels, k)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            mixup_pairs([0, 1], keyed_rng(0, 0), 0.0)


class TestInitialMeanAndAverage:
    def test_single_client_identity(self):
        cs = pset({0: [1.0, 2.0], 1: [3.0, 4.0]})
        out = average_prototypes([cs])
        for k in (0, 1):
            assert np.array_equal(out.vectors[k], cs.vectors[k])

    def test_two_client_mean(self):
        out = average_prototypes([pset({0: [0.0, 0.0]}), pset({0: [2.0, 0.0]})])
        assert np.array_equal(out.vectors[0], [1.0, 0.0])
        assert out.support[0] == 2

    def test_missing_class_skipped(self):
        rng = np.random.default_rng(4)
        sets = [pset({k: rng.normal(size=3) for k in range(3)}) for _ in range(4)]
        sets[1].vectors[2], sets[1].support[2] = 0.0, 0
        out = average_prototypes(sets)
        contributing = [s.vectors[2] for s in sets if s.present[2]]
        assert len(contributing) == 3
        assert np.allclose(out.vectors[2], np.mean(contributing, axis=0), atol=1e-12)
        assert out.support[2] == 3

    def test_average_separates_from_reweight(self):
        sets = [pset({0: [0.0, 0.0]}), pset({0: [0.0, 0.0]}), pset({0: [3.0, 0.0]})]
        avg = average_prototypes(sets)
        rw, _ = reweight(sets)
        assert np.allclose(avg.vectors[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(rw.vectors[0], [2.0, 0.0], atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        sets = random_client_sets(rng, 6, 3, 4)
        a = average_prototypes(sets)
        b = average_prototypes(sets[::-1])
        for k in np.flatnonzero(a.present):
            assert np.allclose(a.vectors[k], b.vectors[k], atol=1e-12)


class TestReweight:
    def test_symmetric_two_clients(self):
        sets = [pset({0: [0.0, 0.0]}), pset({0: [2.0, 0.0]})]
        out, report = reweight(sets)
        assert np.allclose(out.vectors[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(report.per_class[0].weights, [0.5, 0.5], atol=1e-12)
        assert not report.per_class[0].fallback

    def test_three_client_hand_case(self):
        sets = [pset({0: [0.0, 0.0]}), pset({0: [0.0, 0.0]}), pset({0: [3.0, 0.0]})]
        out, report = reweight(sets)
        assert np.allclose(report.per_class[0].distances, [1.0, 1.0, 4.0], atol=1e-12)
        assert np.allclose(report.per_class[0].weights, [1 / 6, 1 / 6, 4 / 6], atol=1e-12)
        assert np.allclose(out.vectors[0], [2.0, 0.0], atol=1e-12)

    def test_single_client_fallback(self):
        sets = [pset({0: [5.0, -1.0]})]
        out, report = reweight(sets)
        assert np.array_equal(out.vectors[0], [5.0, -1.0])
        assert report.per_class[0].fallback

    def test_identical_prototypes_uniform(self):
        sets = [pset({0: [1.0, 1.0]}) for _ in range(4)]
        out, report = reweight(sets)
        assert report.per_class[0].fallback
        assert np.allclose(report.per_class[0].weights, 0.25, atol=0)
        assert np.allclose(out.vectors[0], [1.0, 1.0], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sets = random_client_sets(
                rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)), int(rng.integers(2, 33))
            )
            got, _ = reweight(sets)
            naive = naive_reweight(sets)
            for k, vec in naive.items():
                assert np.max(np.abs(got.vectors[k] - np.asarray(vec))) < 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_and_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        sets = random_client_sets(rng, 5, 3, 4)
        got, report = reweight(sets)
        for k, info in report.per_class.items():
            assert abs(info.weights.sum() - 1.0) < 1e-9
            assert np.all(info.weights >= 0)
            # convex hull membership via bounding box of contributors
            stack = np.stack([sets[m].vectors[k] for m in info.clients])
            assert np.all(got.vectors[k] >= stack.min(axis=0) - 1e-9)
            assert np.all(got.vectors[k] <= stack.max(axis=0) + 1e-9)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        sets = random_client_sets(rng, 5, 3, 4)
        c = rng.normal(size=4)
        shifted = [
            PrototypeSet(np.where(s.present[:, None], s.vectors + c, 0.0), s.support)
            for s in sets
        ]
        base, base_rep = reweight(sets)
        moved, moved_rep = reweight(shifted)
        for k in np.flatnonzero(base.present):
            assert np.allclose(moved.vectors[k], base.vectors[k] + c, atol=1e-9)
            assert np.allclose(
                moved_rep.per_class[k].weights, base_rep.per_class[k].weights, atol=1e-9
            )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        sets = random_client_sets(rng, 5, 3, 4)
        s = 3.7
        scaled = [PrototypeSet(st_.vectors * s, st_.support) for st_ in sets]
        base, base_rep = reweight(sets)
        big, big_rep = reweight(scaled)
        for k in np.flatnonzero(base.present):
            assert np.allclose(big.vectors[k], base.vectors[k] * s, atol=1e-9)
            assert np.allclose(
                big_rep.per_class[k].weights, base_rep.per_class[k].weights, atol=1e-9
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        sets = random_client_sets(rng, 6, 3, 5)
        a, _ = reweight(sets)
        b, _ = reweight(sets[::-1])
        for k in np.flatnonzero(a.present):
            assert np.allclose(a.vectors[k], b.vectors[k], atol=1e-12)


class TestEmaUpdate:
    def test_beta_one_exact(self):
        new, prev = pset({0: [1.0, 0.0]}), pset({0: [5.0, 5.0]})
        out = ema_update(new, prev, 1.0)
        assert np.array_equal(out.vectors[0], [1.0, 0.0])

    def test_beta_zero_exact(self):
        new, prev = pset({0: [1.0, 0.0]}), pset({0: [5.0, 5.0]})
        out = ema_update(new, prev, 0.0)
        assert np.array_equal(out.vectors[0], [5.0, 5.0])

    def test_default_decay_step(self):
        out = ema_update(pset({0: [1.0, 0.0]}), pset({0: [0.0, 0.0]}), 0.99)
        assert np.allclose(out.vectors[0], [0.99, 0.0], atol=1e-12)

    def test_missing_prev_class_passthrough(self):
        new = pset({0: [1.0, 1.0], 1: [2.0, 2.0]})
        prev = DictPrototypeSet({0: Prototype(np.array([0.0, 0.0]), 1)}).to_dense(2)
        out = ema_update(new, prev, 0.5)
        assert np.allclose(out.vectors[0], [0.5, 0.5], atol=0)
        assert np.array_equal(out.vectors[1], [2.0, 2.0])

    def test_class_missing_from_new_carried_forward(self):
        # a class no client uploaded this round keeps its previous prototype
        # (and support) instead of vanishing from the generalized set
        new = DictPrototypeSet({0: Prototype(np.array([1.0, 1.0]), 4)}).to_dense(2)
        prev = DictPrototypeSet(
            {0: Prototype(np.array([0.0, 0.0]), 3), 1: Prototype(np.array([-2.0, 5.0]), 2)}
        ).to_dense()
        out = ema_update(new, prev, 0.5)
        assert np.array_equal(out.vectors[0], [0.5, 0.5]) and out.support[0] == 4
        assert np.array_equal(out.vectors[1], [-2.0, 5.0]) and out.support[1] == 2

    def test_absent_prev_identity(self):
        new = pset({0: [1.0, 1.0]})
        assert ema_update(new, None, 0.3) is new

    @given(
        st.floats(min_value=0, max_value=1),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
    )
    @settings(max_examples=60)
    def test_affine_componentwise(self, beta, a, b):
        out = ema_update(pset({0: a}), pset({0: b}), beta)
        expected = beta * np.asarray(a) + (1 - beta) * np.asarray(b)
        assert np.allclose(out.vectors[0], expected, atol=1e-12)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            ema_update(pset({0: [1.0]}), None, 1.5)


def per_class_server_means(client_sets):
    """The server's class means in their per-class form: each class's present
    client rows, in client order, through numpy's axis-0 mean, and reweight's
    distances, weights and combination from that mean. Returns the average
    and reweighted (K, d) vectors and {class: (clients, dists, weights,
    fallback)}."""
    vectors = np.stack([cs.vectors for cs in client_sets])
    present = np.stack([cs.present for cs in client_sets])
    average, combined, per_class = np.zeros(vectors.shape[1:]), np.zeros(vectors.shape[1:]), {}
    for k in np.flatnonzero(present.any(axis=0)):
        clients = np.flatnonzero(present[:, k])
        stacked = vectors[clients, k]
        average[k] = stacked.mean(axis=0)
        dists = np.array([np.dot(diff, diff) for diff in stacked - average[k]])
        total = float(dists.sum())
        fallback = total < DEGENERATE_DISTANCE
        weights = np.full(len(clients), 1.0 / len(clients)) if fallback else dists / total
        combined[k] = (weights[:, None] * stacked).sum(axis=0)
        per_class[int(k)] = (clients.tolist(), dists, weights, fallback)
    return average, combined, per_class


def same_bits(a, b) -> bool:
    """Equal shapes and bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestServerMeansBitwise:
    @pytest.mark.parametrize("dim", [2, 16])
    def test_matches_per_class_reference(self, dim):
        # classes 0-3 present at random, class 4 held by one client only,
        # class 5 by none; a fifth of the entries are -0.0
        rng = np.random.default_rng(23 + dim)
        for m in range(1, 9):
            for _ in range(10):
                present = rng.random((m, 6)) < 0.6
                present[:, 4:] = False
                present[rng.integers(m), 4] = True
                vectors = rng.normal(size=(m, 6, dim))
                vectors[rng.random(vectors.shape) < 0.2] = -0.0
                vectors[~present] = 0.0
                support = np.where(present, rng.integers(1, 9, size=(m, 6)), 0)
                sets = [PrototypeSet(vectors[i], support[i]) for i in range(m)]
                average, combined, per_class = per_class_server_means(sets)

                avg = average_prototypes(sets)
                rw, report = reweight(sets)
                assert same_bits(avg.vectors, average) and same_bits(rw.vectors, combined)
                assert np.array_equal(avg.support, present.sum(axis=0))
                assert np.array_equal(rw.support, present.sum(axis=0))
                assert sorted(report.per_class) == sorted(per_class)
                for k, (clients, dists, weights, fallback) in per_class.items():
                    got = report.per_class[k]
                    assert got.clients == clients and got.fallback == fallback
                    assert same_bits(got.distances, dists) and same_bits(got.weights, weights)

    def test_no_class_held_raises(self):
        # no run builds these inputs: every client set comes from at least one row
        empty = PrototypeSet(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))
        for aggregate in (average_prototypes, reweight):
            for client_sets in ([empty, empty], []):
                with pytest.raises(ValueError):
                    aggregate(client_sets)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        original = DictPrototypeSet(
            {k: Prototype(rng.normal(size=5), int(k + 1)) for k in range(4)}
        ).to_dense()
        path = tmp_path / "protos.json"
        save_prototypes_json(original, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        assert list(back) == [str(k) for k in np.flatnonzero(original.present)]
        for k in np.flatnonzero(original.present):
            assert np.array_equal(back[str(k)]["vector"], original.vectors[k])
            assert back[str(k)]["support"] == original.support[k]

    def test_json_golden_bytes(self, tmp_path):
        protos = DictPrototypeSet(
            {
                10: Prototype(np.array([0.1, -2.0]), 3),
                2: Prototype(np.array([1e-17, 5.0]), 1),
            }
        ).to_dense()
        path = tmp_path / "prototypes.json"
        save_prototypes_json(protos, path)
        # keys sorted as strings ("10" < "2"), two-space indent, shortest
        # round-trip float repr, trailing newline
        assert path.read_bytes() == (
            b'{\n'
            b'  "10": {\n'
            b'    "support": 3,\n'
            b'    "vector": [\n'
            b'      0.1,\n'
            b'      -2.0\n'
            b'    ]\n'
            b'  },\n'
            b'  "2": {\n'
            b'    "support": 1,\n'
            b'    "vector": [\n'
            b'      1e-17,\n'
            b'      5.0\n'
            b'    ]\n'
            b'  }\n'
            b'}\n'
        )


class TestMixupPairs:
    def test_no_partner_consumes_no_draws(self):
        rng_a, rng_b = keyed_rng(1, 1), keyed_rng(1, 1)
        gammas, partners = mixup_pairs(np.zeros(5, dtype=int), rng_a, 0.4)
        assert np.all(partners == -1) and np.all(gammas == 1.0)
        # identical state afterwards: next draw matches a fresh twin
        assert rng_a.uniform() == rng_b.uniform()

    def test_partners_cross_class(self):
        y = np.array([0, 0, 1, 1, 2])
        gammas, partners = mixup_pairs(y, keyed_rng(3, 3), 0.4)
        for i, j in enumerate(partners):
            assert j >= 0
            assert y[j] != y[i]

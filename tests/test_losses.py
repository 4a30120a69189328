import math

import numpy as np
import pytest

from protofed.federation import RoundReport
from protofed.losses import (
    LossBreakdown, _softmax_xent, cross_entropy, gpcl_targets, total_loss
)
from protofed.prototypes import PrototypeSet

from oracles import (
    DictPrototypeSet,
    Prototype,
    apa_one_batch,
    cosine_similarity,
    finite_diff_grad,
    gpcl_one_batch,
    rel_error,
)


def proto_set(vectors: dict, num_classes=None) -> PrototypeSet:
    return DictPrototypeSet(
        {k: Prototype(np.asarray(v, dtype=np.float64), 1) for k, v in vectors.items()}
    ).to_dense(num_classes)


def gpcl(h, y, protos: PrototypeSet, tau):
    """GPCL of one batch against a dense generalized set."""
    return gpcl_one_batch(h, y, gpcl_targets(protos), tau)


def random_instance(seed, batch=6, dim=5, k=4, min_norm=1e-2):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(batch, dim))
    h += np.sign(h.sum(axis=1, keepdims=True)) * min_norm  # keep norms away from 0
    y = rng.integers(0, k, batch)
    protos = proto_set({c: rng.normal(size=dim) for c in range(k)})
    return h, y, protos


def softmax_xent_reduce_max(z, target):
    """_softmax_xent with its row max taken by z.max(axis=-1, keepdims=True)."""
    picks = target.reshape(-1) + z.shape[-1] * np.arange(target.size)
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    grad = np.exp(shifted - lse[..., None])
    grad.reshape(-1)[picks] -= 1.0
    return lse - shifted.reshape(-1)[picks].reshape(target.shape), grad


class TestSoftmaxXent:
    def test_fold_max_matches_reduce_max_bitwise(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 6, 5))
        z[0, 0] = [1.0, 1.0, 0.5, 1.0, -2.0]  # tied maxima
        z[0, 1] = [0.0, -0.0, -0.0, 0.0, -1.0]  # signed zeros tie at the max
        z[0, 2] = [-0.0, 0.0, -3.0, -1.0, -0.0]
        z[0, 3] = -0.0
        z[1, 0, 3] = np.inf
        z[1, 1, [0, 4]] = np.inf
        z[1, 2] = [-np.inf, 0.0, -np.inf, -1.0, -np.inf]
        z[2, 0, 2] = np.nan
        z[2, 1, [1, 3]] = [np.nan, np.inf]
        z[2, 2, 0] = np.nan
        target = rng.integers(0, 5, (4, 6))
        target[0, :4] = 0
        for zz, tt in ((z, target), (z[0], target[0]), (z[:, :, :1], np.zeros((4, 6), int))):
            with np.errstate(invalid="ignore"):  # inf - inf
                got = _softmax_xent(zz, tt)
                want = softmax_xent_reduce_max(zz, tt)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestCrossEntropy:
    def test_uniform_softmax(self):
        loss, _ = cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_extreme_logits_stable(self):
        loss, grad = cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((1, 3)), [3])
        # a negative label, in a batch and in a stack of batches
        for logits, labels in ((np.zeros((2, 3)), [0, -1]), (np.zeros((2, 2, 3)), [[0, 1], [-1, 2]])):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
                cross_entropy(logits, labels)

    def test_grad_finite_differences(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, 5)
        _, grad = cross_entropy(z, y)
        numeric = finite_diff_grad(lambda zz: cross_entropy(zz, y)[0], z.copy(), 1e-5)
        assert rel_error(grad, numeric) < 1e-4

    def test_stacked_matches_each_batch(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 6, 3)) * 5
        y = rng.integers(0, 3, (4, 6))
        losses, grads = cross_entropy(z, y)
        assert losses.shape == (4,) and grads.shape == z.shape
        for m in range(4):
            loss, grad = cross_entropy(z[m], y[m])
            assert losses[m] == loss and np.array_equal(grads[m], grad)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        _, grad = cross_entropy(z, [0, 1, 2, 0])
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)


class TestGpclLoss:
    def test_cosine_matrix_matches_pairwise_oracle(self):
        from protofed.losses import _cosine_matrix

        rng = np.random.default_rng(4)
        h = rng.normal(size=(5, 3))
        h[0] = 0.0  # norm floor
        protos = rng.normal(size=(4, 3))
        targets = gpcl_targets(PrototypeSet(protos, np.ones(4, dtype=np.int64)))
        sims, _, _ = _cosine_matrix(h, targets.protos, targets.norms)
        for i in range(5):
            for k in range(4):
                expected = cosine_similarity(h[i], protos[k])
                assert np.clip(sims[i, k], -1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_single_class_zero(self):
        h = np.array([[1.0, 2.0], [3.0, -1.0]])
        loss, grad = gpcl(h, [0, 0], proto_set({0: [1.0, 0.0]}), 0.07)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_orthogonal_closed_form(self):
        protos = proto_set({0: [2.0, 0.0], 1: [0.0, 3.0]})
        loss, _ = gpcl(np.array([[5.0, 0.0]]), [0], protos, 1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="no generalized prototype"):
            gpcl(np.ones((1, 2)), [1], proto_set({0: [1.0, 0.0]}, num_classes=2), 0.07)

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError):
            gpcl(np.ones((1, 2)), [0], PrototypeSet(np.zeros((1, 2)), np.zeros(1, int)), 0.07)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            gpcl(np.ones((1, 2)), [0], proto_set({0: [1.0, 0.0]}), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_finite_differences(self, seed):
        h, y, protos = random_instance(seed)
        _, grad = gpcl(h, y, protos, 0.2)
        numeric = finite_diff_grad(
            lambda hh: gpcl(hh, y, protos, 0.2)[0], h.copy(), 1e-5
        )
        assert rel_error(grad, numeric) < 1e-4

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_feature_scale_invariance(self, scale):
        h, y, protos = random_instance(3)
        base, _ = gpcl(h, y, protos, 0.1)
        scaled = h.copy()
        scaled[2] *= scale
        after, _ = gpcl(scaled, y, protos, 0.1)
        assert abs(after - base) < 1e-9

    def test_one_step_descent(self):
        h, y, protos = random_instance(4)
        loss, grad = gpcl(h, y, protos, 0.2)
        stepped, _ = gpcl(h - 1e-3 * grad, y, protos, 0.2)
        assert stepped < loss

    def test_pull_toward_positive_reduces_loss(self):
        protos = proto_set({0: [1.0, 0.0], 1: [0.0, 1.0]})
        far = np.array([[0.1, 0.9]])
        near = np.array([[0.9, 0.1]])
        far_loss, _ = gpcl(far, [0], protos, 0.5)
        near_loss, _ = gpcl(near, [0], protos, 0.5)
        assert near_loss < far_loss


class TestApaLoss:
    def test_zero_at_prototypes(self):
        protos = proto_set({0: [1.0, 2.0], 1: [-1.0, 0.0]})
        h = np.array([[1.0, 2.0], [-1.0, 0.0]])
        loss, grad = apa_one_batch(h, [0, 1], protos)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_unit_case(self):
        loss, grad = apa_one_batch(np.array([[1.0, 0.0]]), [0], proto_set({0: [0.0, 0.0]}))
        assert loss == pytest.approx(1.0, abs=0)
        assert np.allclose(grad, [[2.0, 0.0]], atol=0)

    def test_missing_class_contributes_zero(self):
        protos = proto_set({0: [0.0, 0.0]}, num_classes=2)
        h = np.array([[1.0, 0.0], [5.0, 5.0]])
        loss, grad = apa_one_batch(h, [0, 1], protos)
        assert loss == pytest.approx(0.5, abs=1e-15)  # only sample 0 counted, /B=2
        assert np.all(grad[1] == 0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            h, y, protos = random_instance(seed)
            loss, _ = apa_one_batch(h, y, protos)
            assert loss >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_finite_differences(self, seed):
        h, y, protos = random_instance(seed + 100)
        _, grad = apa_one_batch(h, y, protos)
        numeric = finite_diff_grad(lambda hh: apa_one_batch(hh, y, protos)[0], h.copy(), 1e-5)
        assert rel_error(grad, numeric) < 1e-4


class TestTotalLoss:
    def test_plain_sum(self):
        assert total_loss(1.0, 0.0, 0.0).total == 1.0
        assert total_loss(0.5, 0.25, 0.25).total == pytest.approx(1.0, abs=0)

    def test_breakdown_invariant(self):
        out = total_loss(0.3, 0.21, 0.17)
        assert out.total == pytest.approx(out.ce + out.gpcl + out.apa, abs=1e-12)

    def test_disabled_terms_degrade_to_ce(self):
        out = total_loss(0.8, 0.0, 0.0)
        assert out.total == out.ce
        assert out.gpcl == 0.0 and out.apa == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            total_loss(float("nan"), 0.0, 0.0)

    def test_as_dict(self):
        report = RoundReport(0, {0: 1.0}, 1.0, total_loss(1.0, 2.0, 3.0))
        d = report.to_json_dict()["losses"]
        assert d == {"ce": 1.0, "gpcl": 2.0, "apa": 3.0, "total": 6.0}

import struct

import numpy as np
import pytest

from protofed.model import (
    ModelParams,
    backward,
    forward,
    init_params,
    load_params,
    params_from_bytes,
    params_from_layers,
    params_to_bytes,
    save_params,
    sgd_step,
)
from protofed.numerics import keyed_rng

from oracles import (
    DictPrototypeSet,
    Prototype,
    analytic_total_grads,
    finite_diff_grad,
    rel_error,
    total_objective,
)


def small_model(seed=0, arch=(4, 2, 3), k=2):
    return init_params(keyed_rng(seed, 1000), list(arch), k)


def zeros_like(p: ModelParams) -> ModelParams:
    return ModelParams(np.zeros_like(p.flat), p.shapes)


class TestInit:
    def test_shapes(self):
        p = init_params(keyed_rng(0, 0), [4, 8, 3], 2)
        assert [w.shape for w, _ in p.extractor] == [(8, 4), (3, 8)]
        assert p.classifier[0].shape == (2, 3)
        assert p.input_dim == 4 and p.feature_dim == 3 and p.shapes[-1][0] == 2

    def test_biases_zero(self):
        p = init_params(keyed_rng(7, 0), [5, 6, 4], 3)
        for _, b in p.extractor:
            assert np.all(b == 0.0)
        assert np.all(p.classifier[1] == 0.0)

    def test_deterministic(self):
        a = init_params(keyed_rng(3, 2), [4, 4], 2)
        b = init_params(keyed_rng(3, 2), [4, 4], 2)
        assert np.array_equal(a.flat, b.flat)

    def test_glorot_bounds(self):
        p = init_params(keyed_rng(1, 0), [10, 20], 2)
        w = p.extractor[0][0]
        limit = np.sqrt(6.0 / (10 + 20))
        assert np.all(np.abs(w) <= limit)

    def test_bad_arch(self):
        with pytest.raises(ValueError):
            init_params(keyed_rng(0, 0), [], 2)
        with pytest.raises(ValueError):
            init_params(keyed_rng(0, 0), [4], 2)
        with pytest.raises(ValueError):
            init_params(keyed_rng(0, 0), [4, 3], 1)


class TestForward:
    def test_zero_params_zero_output(self):
        p = small_model()
        t = forward(zeros_like(p), np.ones(4))
        assert np.all(t.acts[-1] == 0.0) and np.all(t.logits_2d == 0.0)

    def test_identity_single_layer(self):
        p = params_from_layers([(np.eye(3), np.zeros(3)), (np.ones((2, 3)), np.zeros(2))])
        x = np.array([0.3, -1.2, 4.0])
        t = forward(p, x)
        assert np.array_equal(t.acts[-1], x[None, :])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(5)
        p = small_model(seed=5)
        x = rng.normal(size=4)
        # naive: explicit loops, relu between extractor layers only
        a = x
        for i, (w, b) in enumerate(p.extractor):
            z = np.array([float(np.sum(w[r] * a)) + b[r] for r in range(w.shape[0])])
            a = z if i == len(p.extractor) - 1 else np.maximum(z, 0.0)
        wc, bc = p.classifier
        naive_logits = np.array(
            [float(np.sum(wc[r] * a)) + bc[r] for r in range(wc.shape[0])]
        )
        t = forward(p, x)
        assert np.allclose(t.logits_2d[0], naive_logits, atol=1e-12)

    def test_batch_matches_single(self):
        p = small_model(seed=9)
        xs = np.random.default_rng(2).normal(size=(6, 4))
        batch = forward(p, xs)
        for i in range(6):
            single = forward(p, xs[i])
            assert np.allclose(batch.logits_2d[i], single.logits_2d[0], atol=0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_model(), np.ones(5))

    def test_repeat_bitwise(self):
        p = small_model(seed=4)
        x = np.linspace(-1, 1, 4)
        a, b = forward(p, x), forward(p, x)
        assert np.array_equal(a.logits_2d, b.logits_2d)


def _fixture_losses(seed=0, batch=5, arch=(4, 2, 3), k=2):
    """Random instance with non-degenerate feature norms (a dead ReLU layer
    would put the cosine gradient in its norm-floor regime, which central
    differences cannot resolve)."""
    rng = np.random.default_rng(seed)
    params = small_model(seed=seed, arch=arch, k=k)
    layers = [(w, b + 0.1 * rng.normal(size=b.shape)) for w, b in params.extractor]
    layers.append((params.classifier[0], params.classifier[1] + 0.1 * rng.normal(size=k)))
    params = params_from_layers(layers)
    x = rng.normal(size=(batch, arch[0]))
    y = rng.integers(0, k, batch)
    h = forward(params, x).acts[-1]
    assert np.linalg.norm(h, axis=1).min() > 1e-3, "degenerate fixture"
    d = params.feature_dim
    generalized = DictPrototypeSet({c: Prototype(rng.normal(size=d), 2) for c in range(k)})
    p_tilde = DictPrototypeSet({c: Prototype(rng.normal(size=d), 2) for c in range(k)})
    generalized, p_tilde = generalized.to_dense(), p_tilde.to_dense()
    return params, x, y, generalized, p_tilde


class TestBackward:
    def test_zero_partials_zero_grads(self):
        p = small_model()
        x = np.random.default_rng(0).normal(size=(3, 4))
        t = forward(p, x)
        g = backward(p, t, np.zeros_like(t.logits_2d), np.zeros_like(t.acts[-1]))
        assert g.shapes == p.shapes and np.all(g.flat == 0.0)

    def test_total_loss_finite_differences(self):
        params, x, y, generalized, p_tilde = _fixture_losses(seed=1)
        analytic = analytic_total_grads(params, x, y, generalized, p_tilde, tau=0.5)
        flat = params.flat.copy()

        def loss_at(v):
            return total_objective(
                ModelParams(v.copy(), params.shapes), x, y, generalized, p_tilde, 0.5
            )

        numeric = finite_diff_grad(loss_at, flat, step=1e-5)
        assert rel_error(analytic.flat, numeric) < 1e-4

    def test_batch_linearity(self):
        params, x, y, generalized, p_tilde = _fixture_losses(seed=2, batch=4)
        whole = analytic_total_grads(params, x, y, generalized, p_tilde, tau=0.5)
        acc = np.zeros_like(params.flat)
        for i in range(len(y)):
            gi = analytic_total_grads(
                params, x[i : i + 1], y[i : i + 1], generalized, p_tilde, tau=0.5
            )
            acc += gi.flat
        # per-sample losses carry 1/B = 1; mean over B samples = sum / B
        assert np.allclose(whole.flat, acc / len(y), atol=1e-12)

    def test_shape_mismatch(self):
        p = small_model()
        t = forward(p, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(p, t, np.zeros((3, 2)), np.zeros((2, 3)))


class TestSgdStep:
    def test_zero_grads_zero_decay(self):
        p = small_model(seed=3)
        out = sgd_step(p, zeros_like(p), lr=0.01, weight_decay=0.0)
        assert np.array_equal(p.flat, out.flat)

    def test_scalar_case(self):
        p = params_from_layers([(np.array([[1.0]]), np.zeros(1)), (np.ones((2, 1)), np.zeros(2))])
        g = zeros_like(p)
        g.extractor[0][0][0, 0] = 1.0
        out = sgd_step(p, g, lr=0.1, weight_decay=0.0)
        assert out.extractor[0][0][0, 0] == pytest.approx(0.9, abs=0)

    def test_weight_decay_closed_form(self):
        p = params_from_layers([(np.array([[1.0]]), np.zeros(1)), (np.ones((2, 1)), np.zeros(2))])
        out = sgd_step(p, zeros_like(p), lr=0.01, weight_decay=1e-5)
        assert out.extractor[0][0][0, 0] == pytest.approx(1.0 - 0.01 * 1e-5, abs=1e-18)

    def test_lr_zero_identity(self):
        p = small_model(seed=8)
        g = ModelParams(np.full_like(p.flat, 3.0), p.shapes)
        out = sgd_step(p, g, lr=0.0, weight_decay=0.5)
        assert np.array_equal(p.flat, out.flat)

    def test_shape_mismatch(self):
        p = small_model(arch=(4, 2, 3))
        g = zeros_like(small_model(arch=(4, 3, 2)))
        with pytest.raises(ValueError, match="gradient shapes"):
            sgd_step(p, g, lr=0.1, weight_decay=0.0)


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        p = init_params(keyed_rng(17, 0), [6, 5, 4], 3)
        path = tmp_path / "model.bin"
        save_params(p, path)
        q = load_params(path)
        assert q.shapes == p.shapes and np.array_equal(p.flat, q.flat)

    def test_header(self):
        p = small_model()
        blob = params_to_bytes(p)
        assert blob[:4] == b"PFLM"

    def test_golden_layout(self):
        w0 = np.array([[1.0, -2.0, 3.5], [0.25, 0.0, -1e-3]])
        b0 = np.array([7.0, -8.0])
        wc = np.array([[0.5, 1.5], [-2.5, 3.0]])
        bc = np.array([1e10, -0.125])
        p = params_from_layers([(w0, b0), (wc, bc)])
        expected = (
            b"PFLM"
            + struct.pack("<III", 1, 2, 2)
            + struct.pack("<III", 3, 2, 2)
            + struct.pack("<6d", 1.0, -2.0, 3.5, 0.25, 0.0, -1e-3)
            + struct.pack("<2d", 7.0, -8.0)
            + struct.pack("<4d", 0.5, 1.5, -2.5, 3.0)
            + struct.pack("<2d", 1e10, -0.125)
        )
        assert params_to_bytes(p) == expected
        q = params_from_bytes(expected)
        assert q.shapes == ((2, 3), (2, 2)) and np.array_equal(q.flat, p.flat)

    def test_layers_are_views_of_flat(self):
        p = small_model(arch=(4, 2, 3))
        assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
        layers = p.extractor + [p.classifier]
        assert [w.shape for w, _ in layers] == [(2, 4), (3, 2), (2, 3)]
        for w, b in layers:
            assert np.shares_memory(w, p.flat) and np.shares_memory(b, p.flat)
        p.flat[:] = np.arange(p.flat.size)
        assert p.extractor[0][0][1, 0] == 4.0 and p.extractor[0][1][0] == 8.0
        assert p.classifier[1][-1] == p.flat.size - 1

    def test_flat_size_must_match_shapes(self):
        with pytest.raises(ValueError, match="imply"):
            ModelParams(np.zeros(5), [(2, 2)])
        with pytest.raises(ValueError, match="imply"):
            params_from_layers([(np.zeros((2, 2)), np.zeros(3))])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            params_from_bytes(b"XXXX" + b"\0" * 64)

    def test_length_mismatch_names_offset(self):
        blob = params_to_bytes(small_model())
        for cut in (6, 12, 20, len(blob) - 8, len(blob) - 1):
            with pytest.raises(ValueError, match=f"truncated at byte offset {cut} "):
                params_from_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"trailing bytes at byte offset {len(blob)} "):
            params_from_bytes(blob + b"\0")

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="byte offset 8"):
            params_from_bytes(b"PFLM" + struct.pack("<II", 1, 0))

    def test_classifier_only_rejected(self):
        # one (2, 3) layer and its full body: no extractor layer to run
        blob = b"PFLM" + struct.pack("<IIII", 1, 1, 2, 3) + b"\0" * 8 * (2 * 3 + 2)
        with pytest.raises(ValueError, match="layer count at byte offset 8 is 1"):
            params_from_bytes(blob)

    def test_stacked_params_rejected(self):
        p = small_model()
        stacked = ModelParams(np.stack([p.flat, p.flat]), p.shapes)
        with pytest.raises(ValueError, match="one model"):
            params_to_bytes(stacked)


def _stack(models: list[ModelParams]) -> ModelParams:
    return ModelParams(np.stack([p.flat for p in models]), models[0].shapes)


class TestClientAxis:
    """(M, P) parameters run M clients at once; row m must be bitwise the
    2-D computation for client m alone."""

    @pytest.mark.parametrize(
        "num, batch, arch, k",
        [
            (1, 5, (4, 2, 3), 2),
            (3, 1, (4, 3), 2),
            (5, 32, (16, 32, 16), 5),
            (2, 7, (3, 6, 5, 4), 3),
        ],
    )
    def test_stacked_step_matches_each_client(self, num, batch, arch, k):
        from protofed.losses import cross_entropy

        rng = np.random.default_rng(num * 100 + batch)
        models = [small_model(seed=s, arch=arch, k=k) for s in range(num)]
        x = rng.normal(size=(num, batch, arch[0]))
        y = rng.integers(0, k, (num, batch))
        dh = rng.normal(size=(num, batch, arch[-1]))
        stacked = _stack(models)
        trace = forward(stacked, x)
        ce, dz = cross_entropy(trace.logits_2d, y)
        grads = backward(stacked, trace, dz, dh)
        stepped = sgd_step(stacked, grads, lr=0.1, weight_decay=1e-3)
        for m, p in enumerate(models):
            t = forward(p, x[m])
            ce_m, dz_m = cross_entropy(t.logits_2d, y[m])
            g = backward(p, t, dz_m, dh[m])
            assert np.array_equal(trace.acts[-1][m], t.acts[-1])
            assert np.array_equal(trace.logits_2d[m], t.logits_2d)
            assert ce[m] == ce_m and np.array_equal(dz[m], dz_m)
            assert np.array_equal(grads.flat[m], g.flat)
            assert np.array_equal(stepped.flat[m], sgd_step(p, g, 0.1, 1e-3).flat)

    def test_layer_views_carry_client_axis(self):
        models = [small_model(seed=s) for s in range(3)]
        stacked = _stack(models)
        for m, p in enumerate(models):
            for (w, b), (wm, bm) in zip(stacked.extractor + [stacked.classifier],
                                        p.extractor + [p.classifier]):
                assert np.shares_memory(w, stacked.flat)
                assert np.array_equal(w[m], wm) and np.array_equal(b[m], bm)

    # a single model, and a stack of three
    @pytest.mark.parametrize("num", [None, 3])
    def test_out_writes_the_fresh_result(self, num):
        """backward(out=) and sgd_step(out=params) give the bits of the calls
        that return fresh arrays, and write nothing else."""
        rng = np.random.default_rng(11)
        models = [small_model(seed=s, arch=(4, 3, 2), k=3) for s in range(num or 1)]
        params = models[0] if num is None else _stack(models)
        lead = params.flat.shape[:-1]
        trace = forward(params, rng.normal(size=lead + (6, 4)))
        dz = rng.normal(size=trace.logits_2d.shape)
        dh = rng.normal(size=trace.acts[-1].shape)
        dh[..., 0, :] = -0.0
        fresh = backward(params, trace, dz, dh)
        out = ModelParams(np.full_like(params.flat, np.nan), params.shapes)
        assert backward(params, trace, dz, dh, out=out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()

        stepped = sgd_step(params, fresh, lr=0.1, weight_decay=1e-3)
        grads_before = fresh.flat.copy()
        assert sgd_step(params, fresh, lr=0.1, weight_decay=1e-3, out=params) is params
        assert params.flat.tobytes() == stepped.flat.tobytes()
        assert fresh.flat.tobytes() == grads_before.tobytes()
        w, _ = params.extractor[0]  # the layer views see the new values
        assert np.shares_memory(w, params.flat)

    # a single model, and a stack of four
    @pytest.mark.parametrize("num", [None, 4])
    def test_bias_rows_match_np_sum(self, num):
        """backward's bias rows are bitwise np.sum(axis=-2) of each layer's
        output gradient, the feature layer's being dz @ Wc + dh."""
        rng = np.random.default_rng(13)
        models = [small_model(seed=s, arch=(6, 16, 8), k=5) for s in range(num or 1)]
        params = models[0] if num is None else _stack(models)
        lead = params.flat.shape[:-1]
        trace = forward(params, rng.normal(size=lead + (33, 6)))
        dz = rng.normal(size=trace.logits_2d.shape)
        dh = rng.normal(size=trace.acts[-1].shape)
        dh[..., 0, :] = -0.0
        grads = backward(params, trace, dz, dh)
        got, want = [grads.classifier[1]], [np.sum(dz, axis=-2)]
        g = dz @ params.classifier[0] + dh
        for i in range(len(params.extractor) - 1, -1, -1):
            got.append(grads.extractor[i][1])
            want.append(np.sum(g, axis=-2))
            if i > 0:
                g = (g @ params.extractor[i][0]) * (trace.acts[i - 1] > 0.0)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_out_must_match_parameters(self):
        p = small_model()
        other = zeros_like(_stack([p, p]))
        t = forward(p, np.ones((2, 4)))
        with pytest.raises(ValueError, match="out does not match"):
            backward(p, t, np.zeros_like(t.logits_2d), np.zeros_like(t.acts[-1]), out=other)
        with pytest.raises(ValueError, match="or out do not match"):
            sgd_step(p, zeros_like(p), lr=0.1, weight_decay=0.0, out=other)

    def test_input_must_match_client_axis(self):
        stacked = _stack([small_model(seed=s) for s in range(3)])
        with pytest.raises(ValueError, match="client axes"):
            forward(stacked, np.ones((2, 5, 4)))
        with pytest.raises(ValueError, match="client axes"):
            forward(stacked, np.ones((5, 4)))
        with pytest.raises(ValueError, match="gradient shapes"):
            sgd_step(stacked, zeros_like(small_model()), lr=0.1, weight_decay=0.0)

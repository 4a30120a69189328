"""The prototype terms of a lockstep group, (G, B, ...) at once, must equal
the per-client oracles in tests/oracles.py bitwise: same loss bits, same
gradient and centroid bits, signed zeros included."""

import numpy as np
import pytest

from protofed.losses import _cosine_matrix, _softmax_xent, apa_loss, gpcl_loss, gpcl_targets
from protofed.numerics import EPS_NORM, keyed_rng
from protofed.prototypes import PrototypeSet, local_prototypes, mix_rows, mixup_pairs

from oracles import (
    as_dict_set,
    naive_apa_loss,
    naive_gpcl_loss,
    naive_local_prototypes,
)


def same(a, b) -> bool:
    """Equal shapes and bits: values equal, and zeros of the same sign."""
    a, b = np.asarray(a), np.asarray(b)
    signs_equal = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and signs_equal


def group_instance(seed, groups, batch, dim, k):
    """A group's features and labels plus a generalized set covering every
    label. Features hold -0.0 entries (a column all -0.0 in batch 0), a
    zero row (the norm floor) and rows parallel to their class prototype
    (where the raw cosine can round past 1); labels are skewed so that
    batches miss classes, and batch 0 holds a single class."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(k, dim))
    p = rng.random(k) ** 3
    y = rng.choice(k, size=(groups, batch), p=p / p.sum())
    y[0] = y[0, 0]
    h = rng.normal(size=(groups, batch, dim))
    h[rng.random(h.shape) < 0.15] = -0.0
    parallel = rng.random((groups, batch)) < 0.3
    h[parallel] = protos[y[parallel]] * rng.uniform(0.1, 10.0, size=(int(parallel.sum()), 1))
    h[0, :, 0] = -0.0
    h[-1, -1] = 0.0
    generalized = PrototypeSet(protos, np.full(k, 3))
    return h, y, generalized


def random_set(rng, groups, k, dim, p_present=0.6) -> PrototypeSet:
    """(G, K, d) augmented prototypes with some classes absent."""
    present = rng.random((groups, k)) < p_present
    vectors = np.where(present[..., None], rng.normal(size=(groups, k, dim)), 0.0)
    return PrototypeSet(vectors, present * 2)


def one(pset: PrototypeSet, g: int) -> PrototypeSet:
    return PrototypeSet(pset.vectors[g], pset.support[g])


# (groups, batch, dim, classes): a group of one; the interleaved sizes of
# TestLockstep (five full batches of 8); its ragged sizes (four batches of 8,
# two of 7, a batch of one, a batch of 5); the benchmark's shape (8 clients,
# B = 32, d = K = 8); and whole datasets, as at the end of a local update.
# Feature width 1 is left out: validate_config rejects it.
SHAPES = [
    (1, 8, 6, 3),
    (5, 8, 6, 3),
    (4, 8, 6, 3),
    (2, 7, 6, 3),
    (1, 1, 6, 3),
    (1, 5, 6, 3),
    (3, 1, 4, 2),
    (8, 32, 8, 8),
    (3, 300, 8, 5),
]


@pytest.mark.parametrize("groups, batch, dim, k", SHAPES)
@pytest.mark.parametrize("seed", range(3))
class TestGroupTerms:
    def test_gpcl_matches_each_client(self, groups, batch, dim, k, seed):
        h, y, generalized = group_instance(seed, groups, batch, dim, k)
        loss, grad = gpcl_loss(h, y, gpcl_targets(generalized), 0.07)
        assert loss.shape == (groups,) and grad.shape == h.shape
        for g in range(groups):
            want_loss, want_grad = naive_gpcl_loss(h[g], y[g], as_dict_set(generalized), 0.07)
            assert same(loss[g], want_loss) and same(grad[g], want_grad)

    def test_gpcl_with_absent_generalized_class(self, groups, batch, dim, k, seed):
        # one extra class that no label uses and no client uploaded: the
        # softmax runs over the present prototypes only
        h, y, generalized = group_instance(seed, groups, batch, dim, k)
        vectors = np.vstack([generalized.vectors, np.zeros((1, dim))])
        sparse = PrototypeSet(vectors[[0, k] + list(range(1, k))], np.array([3, 0] + [3] * (k - 1)))
        labels = np.where(y == 0, 0, y + 1)
        loss, grad = gpcl_loss(h, labels, gpcl_targets(sparse), 0.5)
        for g in range(groups):
            want_loss, want_grad = naive_gpcl_loss(h[g], labels[g], as_dict_set(sparse), 0.5)
            assert same(loss[g], want_loss) and same(grad[g], want_grad)

    def test_class_means_match_each_client(self, groups, batch, dim, k, seed):
        h, y, _ = group_instance(seed, groups, batch, dim, k)
        means = local_prototypes(h, y, k)
        assert means.vectors.shape == (groups, k, dim) and means.support.shape == (groups, k)
        for g in range(groups):
            want = naive_local_prototypes(h[g], y[g])
            for c in range(k):
                if c in want:
                    assert same(means.vectors[g, c], want.vector(c))
                    assert means.support[g, c] == want.support(c)
                else:
                    assert means.support[g, c] == 0 and same(means.vectors[g, c], np.zeros(dim))
            single = local_prototypes(h[g], y[g], k)
            assert same(single.vectors, means.vectors[g]) and same(single.support, means.support[g])

    # the batch's own class means (the federation's case), or a set that
    # lacks some of the batch's classes
    @pytest.mark.parametrize("partial", [False, pytest.param(True, id="partial")])
    def test_apa_matches_each_client(self, groups, batch, dim, k, seed, partial):
        h, y, _ = group_instance(seed, groups, batch, dim, k)
        if partial:
            p_tilde = random_set(np.random.default_rng(seed + 1000), groups, k, dim)
        else:
            p_tilde = local_prototypes(h, y, k)
        loss, grad = apa_loss(h, y, p_tilde)
        assert loss.shape == (groups,) and grad.shape == h.shape
        for g in range(groups):
            dict_set = as_dict_set(one(p_tilde, g))
            want_loss, want_grad = naive_apa_loss(h[g], y[g], dict_set)
            assert same(loss[g], want_loss) and same(grad[g], want_grad)

    def test_mixup_pairs_match_each_client(self, groups, batch, dim, k, seed):
        # batch 0 holds a single class, so it draws nothing in either call
        _, y, _ = group_instance(seed, groups, batch, dim, k)
        gammas, partners = mixup_pairs(y, [keyed_rng(seed, g) for g in range(groups)], 0.4)
        assert gammas.shape == partners.shape == y.shape
        for g in range(groups):
            want_gammas, want_partners = mixup_pairs(y[g], keyed_rng(seed, g), 0.4)
            assert same(gammas[g], want_gammas) and same(partners[g], want_partners)

    def test_mix_rows_matches_each_client(self, groups, batch, dim, k, seed):
        h, y, _ = group_instance(seed, groups, batch, dim, k)
        pairs = [mixup_pairs(y[g], keyed_rng(seed, g), 0.4) for g in range(groups)]
        gammas = np.stack([gam for gam, _ in pairs])
        partners = np.stack([par for _, par in pairs])
        mixed = mix_rows(h, gammas, partners)
        for g in range(groups):
            assert same(mixed[g], mix_rows(h[g], gammas[g], partners[g]))
        means = local_prototypes(mixed, y, k)
        for g in range(groups):
            want = naive_local_prototypes(mix_rows(h[g], gammas[g], partners[g]), y[g])
            for c in want.classes():
                assert same(means.vectors[g, c], want.vector(c))


# members 1 and 3 hold a single class: one inside the block, one at its
# end, where a partner lookup that skipped its own class would run past the
# last row
SINGLE_CLASS_BLOCK = np.array([
    [0, 1, 2, 1, 0, 2, 2],
    [2, 2, 2, 2, 2, 2, 2],
    [1, 0, 0, 1, 1, 0, 3],
    [0, 0, 0, 0, 0, 0, 0],
])


def test_block_mixup_pairs_with_single_class_members():
    """The block call equals per-member calls bitwise; a single-class member
    gets partner -1 and gamma 1.0 and its stream draws nothing, while the
    other members' streams advance exactly as they do alone."""
    y = SINGLE_CLASS_BLOCK
    block_rngs = [keyed_rng(7, g) for g in range(len(y))]
    gammas, partners = mixup_pairs(y, block_rngs, 0.4)
    for g, rng in enumerate(block_rngs):
        alone = keyed_rng(7, g)
        want_gammas, want_partners = mixup_pairs(y[g], alone, 0.4)
        assert same(gammas[g], want_gammas) and same(partners[g], want_partners)
        if g in (1, 3):
            assert np.all(partners[g] == -1) and np.all(gammas[g] == 1.0)
            assert rng.uniform() == keyed_rng(7, g).uniform()  # drew nothing
        else:
            assert np.all(y[g][partners[g]] != y[g])
            assert rng.uniform() == alone.uniform()  # drew as it does alone


@pytest.mark.parametrize("groups", [1, 3])
def test_epoch_mixup_pairs_match_step_calls(groups):
    """One call over an epoch's full batches, member-major rows with each
    member's Generator repeated once per step, then one call for the short
    last batch, equals the per-step block calls bitwise and leaves every
    Generator in the same state: each stream draws its permutation, then
    each step's gammas and ranks, in step order."""
    n, b, k, alpha = 400, 32, 5, 0.4
    full, steps = n // b, -(-n // b)
    labels = np.random.default_rng(groups).integers(0, k, (groups, n))
    epoch_rngs = [keyed_rng(11, g) for g in range(groups)]
    step_rngs = [keyed_rng(11, g) for g in range(groups)]
    ys = np.stack([labels[g][r.permutation(n)] for g, r in enumerate(epoch_rngs)])
    assert all(np.array_equal(ys[g], labels[g][r.permutation(n)]) for g, r in enumerate(step_rngs))
    ys[-1, 4 * b : 5 * b] = 2  # a single-class batch inside the epoch

    rows = [r for r in epoch_rngs for _ in range(full)]
    gammas, partners = mixup_pairs(ys[:, : full * b].reshape(groups * full, b), rows, alpha)
    gammas, partners = gammas.reshape(groups, full, b), partners.reshape(groups, full, b)
    last = mixup_pairs(ys[:, full * b :], epoch_rngs, alpha)
    assert last[0].shape == (groups, n - full * b) == (groups, 16)
    for step in range(steps):
        want = mixup_pairs(ys[:, step * b : (step + 1) * b], step_rngs, alpha)
        got = (gammas[:, step], partners[:, step]) if step < full else last
        assert same(got[0], want[0]) and same(got[1], want[1])
    assert np.all(partners[-1, 4] == -1) and np.all(gammas[-1, 4] == 1.0)
    for a, r in zip(epoch_rngs, step_rngs):
        assert plain(a.bit_generator.state) == plain(r.bit_generator.state)


def plain(state):
    """A bit generator's state with its arrays as lists, to compare with ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def mix_rows_masked(rows, gammas, partners):
    """Reference for mix_rows: mixes only the rows with a partner and
    copies the others (partner -1) untouched."""
    mixed = rows.copy()
    has = partners >= 0
    g = gammas[has][:, None]
    batch = np.nonzero(has)[:-1]
    mixed[has] = g * rows[has] + (1.0 - g) * rows[batch + (partners[has],)]
    return mixed


@pytest.mark.parametrize("stacked", [False, True])
def test_mix_rows_gather_matches_masked_path(stacked):
    """mix_rows's one flat gather, where partner -1 mixes a row with itself
    at gamma 1.0, gives the masked form's bits: for rows that are a strided
    slice of a larger stack (a step's inputs), for gammas at the clamp's
    edges (alpha = 0.05), and for a single-class member, whose -0.0 entries
    keep their sign."""
    rng = np.random.default_rng(6)
    y = rng.integers(0, 4, (4, 32))
    y[2] = 1  # one class: partner -1 and gamma 1.0 throughout
    stack = rng.normal(size=(4, 64, 5))
    stack[rng.random(stack.shape) < 0.1] = -0.0
    rows = stack[:, 16:48]
    gammas, partners = mixup_pairs(y, [keyed_rng(3, g) for g in range(4)], 0.05)
    assert (gammas == 1.0 - 2**-53).any() and np.delete(partners, 2, axis=0).min() >= 0
    assert (partners[2] == -1).all() and (gammas[2] == 1.0).all()
    assert (np.signbit(rows[2]) & (rows[2] == 0.0)).any()
    cases = [(rows, gammas, partners)] if stacked else zip(rows, gammas, partners)
    for case in cases:
        assert same(mix_rows(*case), mix_rows_masked(*case))


def gpcl_loss_reference(h, y, targets, tau):
    """gpcl_loss with np.linalg.norm, np.clip and np.mean."""
    norms = np.linalg.norm(h, axis=-1)
    nh = np.maximum(norms, EPS_NORM)
    sims_raw = (h @ targets.protos.T) / (nh[..., None] * targets.norms)
    sims = np.clip(sims_raw, -1.0, 1.0)
    rows, dsim = _softmax_xent(sims / tau, targets.row_of[y])
    loss = np.mean(rows, axis=-1)
    dsim /= h.shape[-2] * tau
    dsim[np.abs(sims_raw) > 1.0] = 0.0
    grad = (dsim / targets.norms) @ targets.protos / nh[..., None]
    interior = (norms >= EPS_NORM).astype(np.float64)
    grad -= ((dsim * sims_raw).sum(axis=-1) * interior / nh**2)[..., None] * h
    return loss, grad


@pytest.mark.parametrize("seed", range(3))
def test_gpcl_matches_clip_norm_mean_form(seed):
    """gpcl_loss's np.minimum/np.maximum clamp, add.reduce norms and
    add.reduce mean give the bits of np.clip, np.linalg.norm and np.mean,
    on a zero feature row, -0.0 entries and cosines that round past +1 and
    past -1 (rows parallel and antiparallel to their class prototype)."""
    h, y, generalized = group_instance(seed, 8, 32, 8, 8)
    flip = np.random.default_rng(seed).random(y.shape) < 0.3
    h[flip] = -generalized.vectors[y[flip]] * 3.0
    h[-1, -1] = 0.0
    targets = gpcl_targets(generalized)
    sims, norms, _ = _cosine_matrix(h, targets.protos, targets.norms)
    assert (sims > 1.0).any() and (sims < -1.0).any() and (norms == 0.0).any()
    assert (np.signbit(h) & (h == 0.0)).any()
    loss, grad = gpcl_loss(h, y, targets, 0.07)
    want_loss, want_grad = gpcl_loss_reference(h, y, targets, 0.07)
    assert same(loss, want_loss) and same(grad, want_grad)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_block_mixup_pairs_reject_nonpositive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        mixup_pairs(SINGLE_CLASS_BLOCK, [keyed_rng(7, g) for g in range(4)], alpha)


def test_gpcl_rejects_a_label_without_generalized_prototype():
    """A label in range but absent from the generalized set is rejected for
    the group, whichever client's batch holds it."""
    generalized = PrototypeSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([2, 0]))
    y = np.array([[0, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match=r"labels \[1\] have no generalized prototype"):
        gpcl_loss(np.ones((2, 3, 2)), y, gpcl_targets(generalized), 0.07)


def test_terms_take_stacks_only():
    h, y = np.ones((3, 2)), np.zeros(3, dtype=np.int64)
    pset = PrototypeSet(np.ones((1, 2)), np.ones(1, dtype=np.int64))
    with pytest.raises(ValueError, match="stack of batches"):
        gpcl_loss(h, y, gpcl_targets(pset), 0.07)
    with pytest.raises(ValueError, match="stack of batches"):
        apa_loss(h, y, pset)


def test_instances_reach_the_edge_cases():
    """The fixture does produce what the tests above claim to cover."""
    def negative_zeros(a):
        return bool((np.signbit(a) & (a == 0.0)).any())

    clamped = floored = neg_zero_grad = single_class = missing_class = False
    for groups, batch, dim, k in SHAPES:
        for seed in range(3):
            h, y, generalized = group_instance(seed, groups, batch, dim, k)
            targets = gpcl_targets(generalized)
            sims, norms, _ = _cosine_matrix(h, targets.protos, targets.norms)
            clamped |= bool((np.abs(sims) > 1.0).any())
            floored |= bool((norms == 0.0).any())
            means = local_prototypes(h, y, k)
            neg_zero_grad |= negative_zeros(apa_loss(h, y, means)[1])
            single_class |= bool(((means.support > 0).sum(axis=1) == 1).any())
            missing_class |= bool((means.support == 0).any())
    assert clamped and floored and neg_zero_grad and single_class and missing_class

import numpy as np
import pytest

from protofed.datagen import (
    SampleSet,
    load_csv,
    make_domains,
    partition,
    save_csv,
    split_by_domain,
)
from protofed.numerics import keyed_rng


def gen(seed=0, **kw):
    args = dict(num_classes=5, num_domains=4, input_dim=16, per_class_count=200)
    args.update(kw)
    return make_domains(rng=keyed_rng(seed, 0), **args)


class TestMakeDomains:
    def test_single_domain_plain_mixture(self):
        data = gen(num_domains=1, per_class_count=50)
        assert set(data) == {0}
        ds = data[0]
        assert len(ds) == 5 * 50
        counts = np.bincount(ds.labels, minlength=5)
        assert np.all(counts == 50)

    def test_label_marginal_identical_across_domains(self):
        data = gen(per_class_count=30)
        reference = np.bincount(data[0].labels, minlength=5)
        for dom, ds in data.items():
            assert np.array_equal(np.bincount(ds.labels, minlength=5), reference)
            assert np.all(ds.domains == dom)

    def test_identity_specs_give_identical_distributions(self):
        # shift 0 draws no rotation, unit scales and zero bias: every
        # domain's transform is the identity
        data = gen(num_domains=3, per_class_count=200, shift=0.0)
        # two-sample mean test per class between domains
        for k in range(5):
            m0 = data[0].x[data[0].labels == k].mean(axis=0)
            m1 = data[1].x[data[1].labels == k].mean(axis=0)
            bound = 5 * np.sqrt(2 * 16 * 0.09 / 200)
            assert np.linalg.norm(m0 - m1) < bound

    def test_domain_shift_exceeds_noise(self):
        data = gen(per_class_count=200)
        sigma = 0.3
        for k in range(5):
            means = [d.x[d.labels == k].mean(axis=0) for d in data.values()]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.linalg.norm(means[i] - means[j]) > 3 * sigma

    def test_deterministic(self):
        a, b = gen(seed=3), gen(seed=3)
        for dom in a:
            assert np.array_equal(a[dom].x, b[dom].x)
            assert np.array_equal(a[dom].labels, b[dom].labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen(num_classes=1)
        with pytest.raises(ValueError):
            gen(input_dim=1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_domains(2, 2, 8, 10, keyed_rng(0, 0), noise_sigma=-1.0)

    def test_underflowing_scale_names_domain_and_shift(self):
        # exp(u * shift) with u in [-0.25, 0.25] underflows to 0 at shift 1e4
        message = r"^domain 1: shift 10000 underflows a scale to 0$"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            gen(num_domains=2, per_class_count=10, shift=1e4)


class TestPartition:
    def test_unequal_allocation(self):
        data = gen(per_class_count=50)
        clients, tests = partition(data, {0: 6, 1: 4, 2: 3, 3: 7}, 1.0, keyed_rng(1, 0))
        assert len(clients) == 20
        got = {}
        for c in clients:
            [dom] = np.unique(c.domains)
            got[int(dom)] = got.get(int(dom), 0) + 1
        assert got == {0: 6, 1: 4, 2: 3, 3: 7}
        assert sorted(tests) == [0, 1, 2, 3]

    def test_exact_floor_draw(self):
        # training pool of exactly 1000 per domain: 1250 raw - 20% test
        data = gen(num_classes=5, per_class_count=250, num_domains=2)
        clients, _ = partition(data, {0: 3, 1: 2}, 0.2, keyed_rng(2, 0))
        for c in clients:
            assert len(c) == 200

    def test_train_test_disjoint(self):
        data = gen(per_class_count=40)
        clients, tests = partition(data, {d: 2 for d in range(4)}, 0.5, keyed_rng(3, 0))
        for c in clients:
            test_rows = {tuple(row) for row in tests[int(c.domains[0])].x}
            for row in c.x:
                assert tuple(row) not in test_rows

    def test_deterministic(self):
        data = gen(per_class_count=40)
        counts = {d: 2 for d in range(4)}
        a, _ = partition(data, counts, 0.5, keyed_rng(4, 0))
        b, _ = partition(data, counts, 0.5, keyed_rng(4, 0))
        assert len(a) == len(b) == 8
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.x, cb.x)
            assert np.array_equal(ca.domains, cb.domains)

    def test_client_ids_sequential(self):
        # a client's id is its position: domains ascending, each domain's
        # clients consecutive
        data = gen(per_class_count=20)
        clients, _ = partition(data, {3: 2, 0: 2, 2: 1, 1: 1}, 0.5, keyed_rng(5, 0))
        assert [int(c.domains[0]) for c in clients] == [0, 0, 1, 2, 3, 3]

    def test_empty_allocation_rejected(self):
        with pytest.raises(ValueError, match="plan allocates no clients"):
            partition(gen(per_class_count=10), {0: 0}, 0.5, keyed_rng(6, 0))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match=r"sampling_rate must lie in \(0, 1\]"):
            partition(gen(per_class_count=10), {0: 1}, 0.0, keyed_rng(6, 0))

    def test_missing_domain_rejected(self):
        data = gen(num_domains=2, per_class_count=10)
        with pytest.raises(ValueError):
            partition(data, {0: 1, 5: 1}, 0.5, keyed_rng(6, 0))


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        data = gen(per_class_count=10)
        merged = data[0]
        path = tmp_path / "data.csv"
        save_csv(merged, path)
        back = load_csv(path)
        assert np.array_equal(back.x, merged.x)
        assert np.array_equal(back.labels, merged.labels)
        assert np.array_equal(back.domains, merged.domains)

    def test_header_only_gives_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,x1,label,domain\n", encoding="utf-8")
        out = load_csv(path)
        assert len(out) == 0
        assert out.input_dim == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("1.0,2.0,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad header"):
            load_csv(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "x0,x1,label,domain\n1.0,2.0,0,0\n1.0,2.0,5,0\n", encoding="utf-8"
        )
        with pytest.raises(ValueError) as err:
            load_csv(path, input_dim=2, num_classes=5)
        assert str(err.value).endswith("(lines 3)")

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "x0,x1,label,domain\noops,2.0,0,0\n1.0,2.0,1,0\n", encoding="utf-8"
        )
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value).endswith("(lines 2)")

    def test_short_row_named(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("x0,x1,label,domain\n1.0,0\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value).endswith("(lines 2)")

    def test_each_bad_line_names_file_and_first_fault(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "x0,x1,label,domain\n"
            "1.0,2.0,0\n"  # line 2
            "oops,inf,0,0\n"  # line 3: the first fault, in column order
            "1.0,inf,9,0\n"
            "1.0,2.0,9,7\n"  # line 5
            "1.0,2.0,4,7\n"
            "1.0,2.0,-1,0\n"  # line 7
            "1.0,2.0,1.5,0\n"
            f"1.0,2.0,{10**400},0\n"  # line 9: too large for a float
            "1.0,2.0,4,3\n",  # sound
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as err:
            load_csv(path, input_dim=2, num_classes=5, num_domains=4)
        assert str(err.value).splitlines() == [
            f"{path}: line 2: 3 columns, expected 4",
            f"{path}: line 3: x0 'oops' does not parse",
            f"{path}: line 4: x1 is inf, not finite",
            f"{path}: line 5: label 9 outside [0, 5)",
            f"{path}: line 6: domain 7 outside [0, 4)",
            f"{path}: line 7: label -1 outside [0, 5)",
            f"{path}: line 8: label '1.5' does not parse",
            f"{path}: line 9: label {10**400} outside [0, 5)",
            "malformed rows (lines 2, 3, 4, 5, 6, 7, 8, 9)",
        ]
        # without bounds only a negative label or domain is out of range
        path.write_text("x0,label,domain\n1.0,9,7\n1.0,0,-2\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == (
            f"{path}: line 3: domain -2 outside [0, inf)\nmalformed rows (lines 3)"
        )

    def test_schema_dim_mismatch(self, tmp_path):
        path = tmp_path / "dim.csv"
        path.write_text("x0,x1,label,domain\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header has 2 feature columns, expected 3"):
            load_csv(path, input_dim=3)

    def test_split_by_domain(self):
        x = np.arange(8, dtype=np.float64).reshape(4, 2)
        ss = SampleSet(x, np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]))
        by_dom = split_by_domain(ss)
        assert len(by_dom[0]) == 2 and len(by_dom[1]) == 2
        assert np.all(by_dom[1].domains == 1)

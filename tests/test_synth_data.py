"""Tests for the synthetic workload generators (DESIGN.md substitutions)."""
import numpy as np
import pytest

from repro import synth_data as sd


class TestCriteoLite:
    def test_record_is_160_bytes(self):
        assert sd.CRITEO_DTYPE.itemsize == 160  # paper: 160 B samples

    def test_deterministic_in_seed(self):
        a = sd.criteo_lite_array(100, seed=5, day=2)
        b = sd.criteo_lite_array(100, seed=5, day=2)
        assert np.array_equal(a, b)

    def test_different_days_differ(self):
        a = sd.criteo_lite_array(100, seed=5, day=0)
        b = sd.criteo_lite_array(100, seed=5, day=1)
        assert not np.array_equal(a, b)

    def test_labels_binary_and_mixed(self):
        arr = sd.criteo_lite_array(2000, seed=0)
        labels = set(np.unique(arr["label"]).tolist())
        assert labels == {0, 1}
        assert 0.05 < arr["label"].mean() < 0.95

    def test_labels_learnable_from_features(self):
        # the generating weights must leave signal: the Bayes-ish score
        # separates classes better than chance
        arr = sd.criteo_lite_array(4000, seed=1)
        w = np.sin(np.arange(13) + 1.0)
        score = arr["dense"].astype(float) @ w
        assert score[arr["label"] == 1].mean() > score[arr["label"] == 0].mean() + 0.2

    def test_bytes_parser_roundtrip(self):
        arr = sd.criteo_lite_array(3, seed=0)
        rec = sd.criteo_bytes_parser(arr[1:2].tobytes())
        assert rec.dtype == sd.CRITEO_DTYPE
        assert np.array_equal(rec, arr[1:2])

    def test_generate_files(self, tmp_path):
        paths, days = sd.generate_criteo_files(
            str(tmp_path), n_samples=2500, samples_per_file=1000, n_days=3
        )
        assert len(paths) == 3
        sizes = [160 * 1000, 160 * 1000, 160 * 500]
        import os

        assert [os.path.getsize(p) for p in paths] == sizes
        assert sorted(set(days)) == sorted(set(days))  # timestamps per file
        assert len(days) == 3


class TestClocLite:
    def test_deterministic(self):
        x1, y1 = sd.cloc_lite_array(50, year=2006, n_classes=8, dim=4)
        x2, y2 = sd.cloc_lite_array(50, year=2006, n_classes=8, dim=4)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_shapes_and_ranges(self):
        x, y = sd.cloc_lite_array(100, year=2004, n_classes=8, dim=4)
        assert x.shape == (100, 4) and x.dtype == np.dtype("<f4")
        assert ((y >= 0) & (y < 8)).all()

    def test_year_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            sd.cloc_lite_array(10, year=1999)

    def test_class_means_drift_over_years(self):
        # E||mean shift|| grows with the year gap: the distribution shift
        # that makes T4's accuracy peaks move (paper Fig. 9).
        n_classes, dim = 4, 6
        xs = {}
        for year in (2004, 2014):
            x, y = sd.cloc_lite_array(
                4000, year=year, n_classes=n_classes, dim=dim, label_noise=0.0
            )
            xs[year] = (x, y)
        base, drift = sd.cloc_class_means(n_classes, dim)
        for c in range(n_classes):
            m04 = xs[2004][0][xs[2004][1] == c].mean(axis=0)
            m14 = xs[2014][0][xs[2014][1] == c].mean(axis=0)
            moved = np.linalg.norm(m14 - m04)
            assert moved == pytest.approx(0.6 * 10, rel=0.35)  # drift_scale*years

    def test_class_priors_rotate(self):
        _, y04 = sd.cloc_lite_array(6000, year=2004, n_classes=8, dim=4)
        _, y09 = sd.cloc_lite_array(6000, year=2009, n_classes=8, dim=4)
        p04 = np.bincount(y04, minlength=8) / 6000
        p09 = np.bincount(y09, minlength=8) / 6000
        assert np.abs(p04 - p09).sum() > 0.2  # total-variation shift

    def test_label_noise_fraction(self):
        x, clean = sd.cloc_lite_array(5000, year=2004, n_classes=8, dim=4, label_noise=0.0)
        x2, noisy = sd.cloc_lite_array(5000, year=2004, n_classes=8, dim=4, label_noise=0.3)
        assert np.array_equal(x, x2)  # noise touches labels only
        frac_changed = (clean != noisy).mean()
        assert 0.2 < frac_changed < 0.32  # 0.3 minus accidental matches

    def test_generate_files_layout(self, tmp_path):
        paths, years = sd.generate_cloc_files(
            str(tmp_path), per_year=5, years=(2004, 2005), n_classes=4, dim=3
        )
        assert len(paths) == 10 and years == [2004] * 5 + [2005] * 5
        import os

        for p in paths:
            assert os.path.getsize(p) == 3 * 4  # dim float32
            assert os.path.exists(p + ".label")

    def test_bytes_parser(self):
        v = np.array([1.5, -2.0], dtype="<f4")
        out = sd.cloc_bytes_parser(v.tobytes())
        assert out.dtype == np.float64 and np.allclose(out, [1.5, -2.0])


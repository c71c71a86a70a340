"""Synthetic workloads of the Modyn reproduction (DESIGN.md "Substitutions").

``criteo_lite`` and ``cloc_lite`` arrays, the files the storage ingests,
and their parsers. Generators are deterministic in ``seed``.
"""
import numpy as np

from repro.storage.payloads import Payloads


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# Modyn reproduction workloads (DESIGN.md "Substitutions").
#
# criteo_lite — synthetic stand-in for the Criteo 1TB click-log workload:
# 160-byte fixed-size binary records (1 x int32 label, 13 x float32 dense,
# 26 x int32 categorical), day-stamped, stored via BinaryFileWrapper.
#
# cloc_lite — synthetic stand-in for the CLOC geolocation workload:
# per-class Gaussian features whose class means and priors drift over the
# years 2004-2014, one sample per file via SingleSampleFileWrapper.
# --------------------------------------------------------------------------

CRITEO_DTYPE = np.dtype(
    [("label", "<i4"), ("dense", "<f4", (13,)), ("cat", "<i4", (26,))]
)
assert CRITEO_DTYPE.itemsize == 160  # the paper's 160 B/sample

_CRITEO_N_CAT_VALUES = 1000  # cardinality of each categorical column


def criteo_lite_array(
    n: int, *, seed: int = 0, day: int = 0
) -> np.ndarray:
    """``n`` click-log records as a numpy structured array (160 B each).

    Labels are a logistic function of the dense features plus a per-value
    categorical effect, so a DLRM-like model has signal to learn. The
    ground-truth weights depend only on the feature index (not on ``seed``
    or ``day``) so every day is drawn from the same task.
    """
    g = _rng(seed * 100_003 + day)
    dense = g.standard_normal((n, 13)).astype("<f4")
    cat = g.integers(0, _CRITEO_N_CAT_VALUES, (n, 26)).astype("<i4")
    w_true = np.sin(np.arange(13) + 1.0)  # fixed ground-truth dense weights
    cat_effect = np.cos(cat[:, 0] / 7.0) * 0.5  # first cat column matters
    logits = dense @ w_true * 0.5 + cat_effect - 1.0
    p = 1.0 / (1.0 + np.exp(-logits))
    label = (g.random(n) < p).astype("<i4")
    out = np.empty(n, dtype=CRITEO_DTYPE)
    out["label"] = label
    out["dense"] = dense
    out["cat"] = cat
    return out


# cloc_lite geometry: per-class base means on a sphere, plus a per-class
# drift direction. Class priors rotate over the years so the label
# distribution shifts too (distribution shift in both P(x|y) and P(y)).
CLOC_YEARS = tuple(range(2004, 2015))  # 11 yearly triggers, as in the paper


def cloc_class_means(
    n_classes: int, dim: int, *, seed: int = 42
) -> tuple[np.ndarray, np.ndarray]:
    """(base_means, drift_directions), both (n_classes, dim)."""
    g = _rng(seed)
    base = g.standard_normal((n_classes, dim)) * 2.0
    drift = g.standard_normal((n_classes, dim))
    drift /= np.linalg.norm(drift, axis=1, keepdims=True)
    return base, drift


def cloc_lite_array(
    n: int,
    *,
    year: int,
    n_classes: int = 32,
    dim: int = 16,
    drift_scale: float = 0.6,
    label_noise: float = 0.1,
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` drifting samples for one year: (features float32 (n, dim), labels int64).

    Class means move ``drift_scale`` per year along a fixed per-class
    direction; class priors rotate with the year; ``label_noise`` of the
    labels are resampled uniformly (this is what makes loss/grad-norm
    proxies unreliable under shift — see DESIGN.md T4).
    """
    if year not in CLOC_YEARS:
        raise ValueError(f"year {year} outside cloc_lite range {CLOC_YEARS}")
    t = year - CLOC_YEARS[0]
    base, drift = cloc_class_means(n_classes, dim, seed=seed)
    g = _rng(seed * 1_000_003 + year)
    # Rotating class priors: a different subset of classes dominates each year.
    prior = 1.0 + np.cos(2 * np.pi * (np.arange(n_classes) - 2.0 * t) / n_classes)
    prior = prior + 0.2
    prior /= prior.sum()
    labels = g.choice(n_classes, size=n, p=prior)
    means = base[labels] + drift_scale * t * drift[labels]
    x = (means + g.standard_normal((n, dim))).astype("<f4")
    noisy = g.random(n) < label_noise
    labels = labels.astype(np.int64)
    labels[noisy] = g.integers(0, n_classes, int(noisy.sum()))
    return x, labels


def criteo_bytes_parser(data: bytes) -> np.ndarray:
    """Per-sample criteo_lite parser (§3.5 form): 160 B record ->
    structured array (len 1). Tests check ``criteo_batch_parser``
    against these rows, concatenated."""
    return np.frombuffer(data, dtype=CRITEO_DTYPE)


def cloc_bytes_parser(data: bytes) -> np.ndarray:
    """Per-sample cloc_lite parser (§3.5 form): raw float32 feature
    vector. Tests check ``cloc_batch_parser`` against these rows, stacked."""
    return np.frombuffer(data, dtype="<f4").astype(np.float64)


def criteo_batch_parser(payloads) -> np.ndarray:
    """The ``"criteo"`` pipeline parser: many 160 B payloads -> one
    structured array.

    The batch is a zero-copy view of the send buffer's ``Payloads`` (the
    paper "creates input tensors directly from a memoryview on the
    sample data"). A plain list of ``bytes`` is joined once.
    """
    return Payloads.of(payloads).buffer.view(CRITEO_DTYPE)


def cloc_batch_parser(payloads) -> np.ndarray:
    """The ``"cloc"`` pipeline parser: payloads -> (n, dim) float64 batch."""
    arr = Payloads.of(payloads).buffer.view("<f4")
    return arr.reshape(len(payloads), -1).astype(np.float64)


def generate_criteo_files(
    root: str,
    *,
    n_samples: int,
    samples_per_file: int,
    seed: int = 0,
    n_days: int = 1,
) -> tuple[list[str], list[int]]:
    """Write criteo_lite binary files under ``root``; returns (paths, day timestamps).

    Samples are spread evenly over ``n_days`` days; each file holds
    ``samples_per_file`` fixed-size records (the paper: ~180 k per file).
    """
    from repro.storage.file_wrappers import BinaryFileWrapper

    wrapper = BinaryFileWrapper(CRITEO_DTYPE)
    paths, stamps = [], []
    written = 0
    f = 0
    while written < n_samples:
        n = min(samples_per_file, n_samples - written)
        day = (f * n_days) // max(1, (n_samples + samples_per_file - 1) // samples_per_file)
        arr = criteo_lite_array(n, seed=seed + f, day=day)
        path = f"{root}/day{day}/criteo_{f:05d}.bin"
        wrapper.write(path, arr)
        paths.append(path)
        stamps.append(day)
        written += n
        f += 1
    return paths, stamps


def generate_cloc_files(
    root: str,
    *,
    per_year: int,
    years: tuple[int, ...] = CLOC_YEARS,
    n_classes: int = 32,
    dim: int = 16,
    drift_scale: float = 0.6,
    label_noise: float = 0.1,
    seed: int = 42,
) -> tuple[list[str], list[int]]:
    """Write cloc_lite one-sample-per-file data (+ ``.label`` sidecars).

    Returns (paths, year timestamps). Mirrors the paper's CLOC layout:
    each sample is an individual file with a corresponding label file.
    """
    from repro.storage.file_wrappers import SingleSampleFileWrapper

    wrapper = SingleSampleFileWrapper()
    paths, stamps = [], []
    for year in years:
        x, labels = cloc_lite_array(
            per_year,
            year=year,
            n_classes=n_classes,
            dim=dim,
            drift_scale=drift_scale,
            label_noise=label_noise,
            seed=seed,
        )
        for i in range(per_year):
            path = f"{root}/{year}/sample_{i:06d}.bin"
            wrapper.write(path, x[i].tobytes(), int(labels[i]))
            paths.append(path)
            stamps.append(year)
    return paths, stamps

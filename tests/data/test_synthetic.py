"""Synthetic dataset generators: shapes, determinism, learnability."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import DATASETS, class_templates, generate_split, load_dataset
from repro.data.synthetic import DatasetSpec

SRC = str(Path(repro.__file__).resolve().parents[1])

#: sha256 over images then labels of ``load_dataset(name, 300, 120, seed=7)``
#: (train split, then test split).  Every perfbench accuracy pin and every
#: recorded history rests on these bytes, so a change here is a change of data.
DATASET_DIGESTS = {
    "mnist": "a61c6f1572c95f586e2b2720039a117bb65ea869dd61a53ecee11fcc3de48ccb",
    "emnist": "b4b8684d5f0e6ffd8b0cfb429000207a25ba1ceaf6072c355fdbb5d40bec5ebd",
    "cifar10": "71a6b303701215b90b28c9433809dce80db25e3b33b072786a714c547cf670c0",
    "cifar100": "b700852a1b9ef91f07e4c44bc55cd47903727a8009402f0574af453ccd85c242",
}

#: Shapes registered outside the builtin families: the load test's micro
#: dataset, ``examples/custom_scenario.py``, and the test suite's own specs,
#: down to a single pixel, where the reflect pad wraps more than once.
ODD_SHAPES = [(1, 8, 8), (1, 12, 12), (2, 7, 9), (1, 6, 6), (1, 5, 5), (1, 4, 4), (1, 1, 1)]


class TestSpecs:
    def test_all_families_present(self):
        assert set(DATASETS) == {"mnist", "emnist", "cifar10", "cifar100"}

    @pytest.mark.parametrize(
        "name,shape,classes",
        [
            ("mnist", (1, 28, 28), 10),
            ("emnist", (1, 28, 28), 26),
            ("cifar10", (3, 32, 32), 10),
            ("cifar100", (3, 32, 32), 100),
        ],
    )
    def test_shapes_and_classes(self, name, shape, classes):
        spec = DATASETS[name].spec
        assert spec.shape == shape
        assert spec.num_classes == classes

    def test_difficulty_ordering(self):
        """Signal-to-noise should decrease from MNIST to CIFAR-100."""
        snr = {
            name: entry.spec.signal / entry.spec.noise
            for name, entry in DATASETS.items()
        }
        assert snr["mnist"] >= snr["cifar10"] >= snr["cifar100"]


class TestTemplates:
    def test_deterministic(self):
        a = class_templates(DATASETS["mnist"].spec, seed=5)
        b = class_templates(DATASETS["mnist"].spec, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_templates(self):
        a = class_templates(DATASETS["mnist"].spec, seed=5)
        b = class_templates(DATASETS["mnist"].spec, seed=6)
        assert not np.allclose(a, b)

    def test_unit_rms(self):
        templates = class_templates(DATASETS["cifar10"].spec, seed=0)
        rms = np.sqrt((templates ** 2).mean(axis=(1, 2, 3)))
        np.testing.assert_allclose(rms, 1.0, atol=1e-10)

    def test_classes_distinct(self):
        templates = class_templates(DATASETS["mnist"].spec, seed=0)
        flattened = templates.reshape(len(templates), -1)
        gram = flattened @ flattened.T
        norm = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        cosine = gram / norm
        off_diagonal = cosine[~np.eye(len(cosine), dtype=bool)]
        assert np.abs(off_diagonal).max() < 0.9


def _scipy_templates(spec, seed):
    """``class_templates`` as written on ``scipy.ndimage.gaussian_filter``."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    templates = rng.normal(size=(spec.num_classes,) + spec.shape)
    for k in range(spec.num_classes):
        for c in range(spec.shape[0]):
            templates[k, c] = ndimage.gaussian_filter(templates[k, c], sigma=3.0)
    rms = np.sqrt((templates ** 2).mean(axis=(1, 2, 3), keepdims=True))
    return templates / rms


class TestBlurMatchesScipy:
    """The numpy blur reproduces ``ndimage.gaussian_filter`` bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("name", ["mnist", "emnist", "cifar10", "cifar100"])
    def test_builtin_specs(self, name, seed):
        spec = DATASETS[name].spec
        assert np.array_equal(class_templates(spec, seed), _scipy_templates(spec, seed))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("shape", ODD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_odd_shapes(self, shape, seed):
        spec = DatasetSpec("odd", shape, 3, signal=1.0, noise=1.0, max_shift=0)
        assert np.array_equal(class_templates(spec, seed), _scipy_templates(spec, seed))


class TestDatasetDigest:
    @pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
    def test_bytes_pinned(self, name):
        digest = hashlib.sha256()
        for dataset in load_dataset(name, 300, 120, seed=7):
            assert dataset.images.dtype == np.float64
            assert dataset.images.flags.c_contiguous
            digest.update(dataset.images.tobytes())
            digest.update(dataset.labels.tobytes())
        assert digest.hexdigest() == DATASET_DIGESTS[name]


def test_runtime_imports_no_scipy():
    """scipy is a test oracle only: importing the package never loads it."""
    code = (
        "import repro, repro.cli, repro.serving, sys; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestGeneration:
    def test_balanced_labels(self):
        dataset = generate_split(DATASETS["mnist"].spec, 100, seed=0, split="train")
        _, counts = np.unique(dataset.labels, return_counts=True)
        assert counts.min() == counts.max() == 10

    def test_remainder_distributed(self):
        dataset = generate_split(DATASETS["mnist"].spec, 103, seed=0, split="train")
        _, counts = np.unique(dataset.labels, return_counts=True)
        assert counts.sum() == 103
        assert counts.max() - counts.min() <= 1

    def test_train_test_differ(self):
        train, test = load_dataset("mnist", 50, 50, seed=0)
        assert not np.allclose(train.images[:10], test.images[:10])

    def test_deterministic_given_seed(self):
        a, _ = load_dataset("cifar10", 40, 10, seed=3)
        b, _ = load_dataset("cifar10", 40, 10, seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    def test_standardized(self):
        dataset = generate_split(DATASETS["cifar10"].spec, 200, seed=0, split="train")
        assert abs(dataset.images.mean()) < 1e-6
        assert abs(dataset.images.std() - 1.0) < 1e-6

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet", 10, 10)

    def test_nonpositive_count_raises(self):
        with pytest.raises(ValueError):
            generate_split(DATASETS["mnist"].spec, 0, seed=0, split="train")


class TestLearnability:
    """The phenomena the paper needs: classes are separable from few shots."""

    def test_nearest_template_beats_chance(self):
        spec = DATASETS["mnist"].spec
        templates = class_templates(spec, seed=0).reshape(spec.num_classes, -1)
        dataset = generate_split(spec, 200, seed=0, split="test")
        flat = dataset.images.reshape(len(dataset), -1)
        scores = flat @ templates.T
        predictions = scores.argmax(axis=1)
        accuracy = (predictions == dataset.labels).mean()
        assert accuracy > 0.5  # chance = 0.1

    def test_cifar100_is_harder_than_mnist(self):
        accuracies = {}
        for name in ("mnist", "cifar100"):
            spec = DATASETS[name].spec
            templates = class_templates(spec, seed=0).reshape(spec.num_classes, -1)
            dataset = generate_split(spec, 300, seed=0, split="test")
            flat = dataset.images.reshape(len(dataset), -1)
            predictions = (flat @ templates.T).argmax(axis=1)
            accuracies[name] = (predictions == dataset.labels).mean()
        assert accuracies["mnist"] > accuracies["cifar100"]

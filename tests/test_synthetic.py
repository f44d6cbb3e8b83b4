import numpy as np
import pytest

from globalattn.errors import ConfigError, ContractError
from globalattn.synthetic import (SyntheticSpec, generate_synthetic,
                                  load_synthetic_spec, split_indices,
                                  split_train_test)


def make_spec(**kw):
    base = dict(n=12, c=1, w=8, h=8, relevant_region=(2, 2, 5, 5),
                num_classes=3, signal_strength=2.0, noise_std=1.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_same_seed_gives_bitwise_identical_datasets():
    a, mask_a = generate_synthetic(make_spec())
    b, mask_b = generate_synthetic(make_spec())
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(mask_a, mask_b)


def test_noiseless_images_of_same_class_identical_inside_region():
    batch, mask = generate_synthetic(make_spec(noise_std=0.0))
    m = mask.astype(bool)
    same = [i for i in range(batch.n) if batch.labels[i] == batch.labels[0]]
    base = batch.images[same[0], :, m]
    for i in same[1:]:
        assert np.array_equal(batch.images[i, :, m], base)


def test_noiseless_zero_signal_carries_no_label_information():
    batch, mask = generate_synthetic(make_spec(noise_std=0.0,
                                               signal_strength=0.0))
    assert np.array_equal(batch.images, np.zeros_like(batch.images))
    # balanced labels: a constant predictor scores exactly 100/L
    counts = np.bincount(batch.labels, minlength=3)
    assert counts.max() == counts.min()


def test_outside_region_distribution_identical_across_classes():
    # with zero noise, pixels outside the region are exactly zero for
    # every class: zero mutual information with the label
    batch, mask = generate_synthetic(make_spec(noise_std=0.0))
    outside = ~mask.astype(bool)
    for k in range(3):
        rows = batch.images[batch.labels == k][:, :, outside]
        assert np.array_equal(rows, np.zeros_like(rows))


def test_templates_orthogonal_and_unit_rms():
    spec = make_spec(noise_std=0.0, signal_strength=1.0)
    batch, mask = generate_synthetic(spec)
    m = mask.astype(bool)
    templates = []
    for k in range(3):
        idx = int(np.argmax(batch.labels == k))
        templates.append(batch.images[idx][:, m].ravel())
    dim = templates[0].size
    for i in range(3):
        assert templates[i] @ templates[i] == pytest.approx(dim, rel=1e-9)
        for j in range(i + 1, 3):
            assert abs(templates[i] @ templates[j]) < 1e-9 * dim


def test_mask_matches_region():
    batch, mask = generate_synthetic(make_spec())
    expected = np.zeros((8, 8))
    expected[2:6, 2:6] = 1.0
    assert np.array_equal(mask, expected)


def test_labels_cycle_through_classes():
    batch, _ = generate_synthetic(make_spec(n=7))
    assert np.array_equal(batch.labels, np.arange(7) % 3)


def test_region_too_small_for_templates():
    with pytest.raises(ConfigError, match="too small"):
        generate_synthetic(make_spec(relevant_region=(2, 2, 2, 2),
                                     num_classes=5))


def test_region_must_lie_inside_image():
    with pytest.raises(ConfigError):
        make_spec(relevant_region=(2, 2, 8, 5))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_seed_outside_64_bits_is_refused(seed):
    # mix_seed keeps the low 64 bits, so -1 would run the streams of 2^64 - 1
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\^64\)"):
        make_spec(seed=seed)


def test_seed_range_bounds_are_accepted():
    make_spec(seed=0)
    make_spec(seed=2 ** 64 - 1)


def test_set_too_large_to_index_is_refused_before_any_draw():
    with pytest.raises(MemoryError, match="too large to index"):
        make_spec(w=2 ** 61, relevant_region=(0, 0, 1, 1))


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_split_seed_outside_64_bits_is_refused(seed):
    batch, _ = generate_synthetic(make_spec(n=10))
    for split in (lambda: split_indices(10, 0.8, seed),
                  lambda: split_train_test(batch, 0.8, seed)):
        with pytest.raises(ConfigError,
                           match=r"seed must lie in \[0, 2\^64\)"):
            split()


def test_split_seed_range_bounds_are_accepted():
    for seed in (0, 2 ** 64 - 1):
        train_idx, test_idx = split_indices(10, 0.8, seed)
        assert sorted([*train_idx, *test_idx]) == list(range(10))


def test_split_is_seeded_shuffle():
    batch, _ = generate_synthetic(make_spec(n=20))
    tr_a, te_a = split_train_test(batch, 0.8, seed=5)
    tr_b, te_b = split_train_test(batch, 0.8, seed=5)
    assert np.array_equal(tr_a.images, tr_b.images)
    assert tr_a.n == 16 and te_a.n == 4
    tr_c, _ = split_train_test(batch, 0.8, seed=6)
    assert not np.array_equal(tr_a.images, tr_c.images)


def test_split_rejects_degenerate_fractions():
    batch, _ = generate_synthetic(make_spec())
    with pytest.raises(ConfigError):
        split_train_test(batch, 1.0, seed=0)


@pytest.mark.parametrize("pick", [
    lambda n: np.random.default_rng(3).permutation(n),
    lambda n: np.arange(n)[::-1][: n // 2],
    lambda n: np.array([n - 2]),
], ids=["shuffled", "reversed-half", "single"])
def test_drawing_indices_equals_subsetting_the_whole_set(pick):
    spec = make_spec(n=13, c=3, seed=4)
    whole, mask = generate_synthetic(spec)
    idx = pick(spec.n)
    part, part_mask = generate_synthetic(spec, idx)
    expected = whole.subset(idx)
    assert part.images.tobytes() == expected.images.tobytes()
    assert part.labels.tobytes() == expected.labels.tobytes()
    assert part.num_classes == expected.num_classes
    assert part_mask.tobytes() == mask.tobytes()


@pytest.mark.parametrize("field", ["signal_strength", "noise_std"])
def test_a_spec_that_overflows_the_images_is_a_config_error(field):
    with pytest.raises(ConfigError, match="overflow"):
        generate_synthetic(make_spec(**{field: 1e308}))


@pytest.mark.parametrize("idx", [[-1], [12], [[0, 1]], [0.0], [True]],
                         ids=["negative", "n", "2-d", "float", "bool"])
def test_drawing_an_index_outside_the_set_is_refused(idx):
    with pytest.raises(ContractError, match="indices"):
        generate_synthetic(make_spec(), np.array(idx))


def load_spec_text(tmp_path, text):
    path = tmp_path / "synth.cfg"
    path.write_text(text)
    return load_synthetic_spec(path)[0]


def test_parse_spec_roundtrip(tmp_path):
    text = ("N = 12\nC = 1\nW = 8\nH = 8\nrelevant_region = 2,2,5,5\n"
            "num_classes = 3\nsignal_strength = 2.0\nnoise_std = 1.0\n"
            "seed = 0\n")
    assert load_spec_text(tmp_path, text) == make_spec()


def test_parse_spec_missing_key(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        load_spec_text(tmp_path, "N = 12\n")


def test_parse_spec_bad_region(tmp_path):
    with pytest.raises(ConfigError):
        load_spec_text(
            tmp_path,
            "N = 4\nC = 1\nW = 8\nH = 8\nrelevant_region = 2,2\n"
            "num_classes = 3\nsignal_strength = 1\nnoise_std = 1\nseed = 0\n")

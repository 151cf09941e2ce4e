"""Loaders and encoders against hand-computed rows and re-derived rules."""

import gzip
import itertools

import numpy as np
import pytest

from gatenet.datasets import (
    BREAST_CANCER_WIDTH,
    BinaryDataset,
    DataError,
    MONK_WIDTH,
    ensure_monk_files,
    generate_monk_files,
    load_adult,
    load_breast_cancer,
    load_dataset,
    load_mnist,
    load_monk,
    monk_rule,
    resolve_data_dir,
)


# Independent restatements of the three MONK target concepts, written without
# reference to the implementation.
def monk1_oracle(a1, a2, a3, a4, a5, a6):
    return 1 if (a1 == a2) or (a5 == 1) else 0


def monk2_oracle(a1, a2, a3, a4, a5, a6):
    ones = [a1, a2, a3, a4, a5, a6].count(1)
    return 1 if ones == 2 else 0


def monk3_oracle(a1, a2, a3, a4, a5, a6):
    return 1 if (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3) else 0


MONK_ORACLES = {1: monk1_oracle, 2: monk2_oracle, 3: monk3_oracle}


class TestBinaryDataset:
    def test_validation(self):
        with pytest.raises(DataError, match="0/1"):
            BinaryDataset(np.array([[0, 2]]), np.array([0]), 2, 2)
        with pytest.raises(DataError, match="labels"):
            BinaryDataset(np.array([[0, 1]]), np.array([5]), 2, 2)
        with pytest.raises(DataError, match="match"):
            BinaryDataset(np.array([[0, 1]]), np.array([0, 1]), 2, 2)
        ds = BinaryDataset(np.array([[0, 1], [1, 0]]), np.array([0, 1]), 2, 2)
        assert len(ds) == 2 and not ds.features.flags.writeable


class TestMonk:
    def test_hand_encoded_row(self, tmp_path):
        path = tmp_path / "row.train"
        path.write_text(" 1 1 2 1 2 3 2 data_7\n")
        ds = load_monk(str(path))
        assert ds.width == MONK_WIDTH == 17 and ds.class_count == 2
        expected = [1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
        np.testing.assert_array_equal(ds.features[0], expected)
        assert ds.labels[0] == 1

    def test_one_hot_blocks(self, tmp_path):
        _, test_path = generate_monk_files(1, str(tmp_path))
        ds = load_monk(test_path)
        widths = (3, 3, 2, 3, 4, 2)
        offset = 0
        for w in widths:
            block = ds.features[:, offset : offset + w]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(ds)))
            offset += w

    @pytest.mark.parametrize("task,train_size", [(1, 124), (2, 169), (3, 122)])
    def test_canonical_sizes(self, tmp_path, task, train_size):
        train_path, test_path = generate_monk_files(task, str(tmp_path))
        assert len(load_monk(train_path)) == train_size
        assert len(load_monk(test_path)) == 432

    @pytest.mark.parametrize("task", [1, 2, 3])
    def test_test_split_matches_rule_exactly(self, tmp_path, task):
        _, test_path = generate_monk_files(task, str(tmp_path))
        oracle = MONK_ORACLES[task]
        with open(test_path) as fh:
            for line in fh:
                tokens = line.split()
                attrs = [int(t) for t in tokens[1:7]]
                assert int(tokens[0]) == oracle(*attrs)

    def test_test_split_covers_full_space(self, tmp_path):
        _, test_path = generate_monk_files(2, str(tmp_path))
        seen = set()
        with open(test_path) as fh:
            for line in fh:
                seen.add(tuple(int(t) for t in line.split()[1:7]))
        assert seen == set(itertools.product(*(range(1, c + 1) for c in (3, 3, 2, 3, 4, 2))))

    def test_monk3_train_noise_rate(self, tmp_path):
        train_path, _ = generate_monk_files(3, str(tmp_path))
        flips = 0
        with open(train_path) as fh:
            for line in fh:
                tokens = line.split()
                flips += int(tokens[0]) != monk3_oracle(*(int(t) for t in tokens[1:7]))
        assert flips == round(0.05 * 122)

    @pytest.mark.parametrize("task", [1, 2])
    def test_train_labels_clean_for_noiseless_tasks(self, tmp_path, task):
        train_path, _ = generate_monk_files(task, str(tmp_path))
        oracle = MONK_ORACLES[task]
        with open(train_path) as fh:
            for line in fh:
                tokens = line.split()
                assert int(tokens[0]) == oracle(*(int(t) for t in tokens[1:7]))

    def test_generation_deterministic(self, tmp_path):
        a_train, a_test = generate_monk_files(1, str(tmp_path / "a"))
        b_train, b_test = generate_monk_files(1, str(tmp_path / "b"))
        assert open(a_train).read() == open(b_train).read()
        assert open(a_test).read() == open(b_test).read()

    def test_ensure_reuses_existing_files(self, tmp_path):
        first = ensure_monk_files(2, str(tmp_path))
        marker = "custom"
        with open(first[0], "a") as fh:
            fh.write(f" 0 1 1 1 1 1 1 {marker}\n")
        again = ensure_monk_files(2, str(tmp_path))
        assert marker in open(again[0]).read()

    def test_parse_errors_carry_location(self, tmp_path):
        path = tmp_path / "bad.train"
        path.write_text(" 1 1 2 1 2 3\n")
        with pytest.raises(DataError, match=r"bad\.train:1.*8 fields"):
            load_monk(str(path))
        path.write_text(" 1 1 2 1 2 9 2 data_0\n")
        with pytest.raises(DataError, match=r":1.*attribute 5"):
            load_monk(str(path))
        path.write_text(" x 1 2 1 2 3 2 data_0\n")
        with pytest.raises(DataError, match="non-integer"):
            load_monk(str(path))
        with pytest.raises(DataError, match="cannot read"):
            load_monk(str(tmp_path / "absent.train"))

    def test_rule_helper_matches_oracles(self):
        for task, oracle in MONK_ORACLES.items():
            for attrs in itertools.product(*(range(1, c + 1) for c in (3, 3, 2, 3, 4, 2))):
                assert monk_rule(task, attrs) == oracle(*attrs)


ADULT_ROW = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K"
)


def write_adult_pair(tmp_path, n=60):
    rng = np.random.default_rng(11)
    work = ["Private", "State-gov", "Self-emp"]
    edu = ["Bachelors", "HS-grad", "Masters"]

    def rows(n, test):
        lines = []
        for i in range(n):
            age = int(rng.integers(18, 80))
            hours = int(rng.integers(10, 90))
            label = "<=50K" if rng.random() < 0.6 else ">50K"
            if test:
                label += "."
            lines.append(
                f"{age}, {work[i % 3]}, {int(rng.integers(1e4, 1e6))}, {edu[i % 3]},"
                f" {int(rng.integers(1, 16))}, Never-married, Adm-clerical, Husband,"
                f" White, Male, 0, 0, {hours}, United-States, {label}"
            )
        return lines

    train = tmp_path / "adult.data"
    test = tmp_path / "adult.test"
    train.write_text("\n".join(rows(n, False)) + "\n")
    test.write_text("|1x3 Cross validator\n" + "\n".join(rows(n // 2, True)) + "\n")
    return str(train), str(test)


class TestAdult:
    def test_single_row_encoding(self, tmp_path):
        train = tmp_path / "adult.data"
        train.write_text(ADULT_ROW + "\n")
        test = tmp_path / "adult.test"
        test.write_text(ADULT_ROW.replace("<=50K", ">50K.") + "\n")
        tr, te = load_adult(str(train), str(test))
        # one row per split; all categorical vocabularies are singletons and
        # all quantile thresholds collapse, so every attribute encodes to one
        # bit: 8 one-hot ones plus 6 thermometer zeros (value > itself fails).
        assert tr.width == te.width == 14
        assert tr.features[0].sum() == 8
        assert tr.labels[0] == 0 and te.labels[0] == 1

    def test_widths_stable_and_junk_skipped(self, tmp_path):
        train_path, test_path = write_adult_pair(tmp_path)
        tr, te = load_adult(train_path, test_path)
        assert tr.width == te.width and tr.class_count == te.class_count == 2
        assert len(tr) == 60 and len(te) == 30  # '|' banner line ignored

    def test_missing_value_rows_dropped(self, tmp_path):
        train = tmp_path / "adult.data"
        train.write_text(ADULT_ROW + "\n" + ADULT_ROW.replace("State-gov", "?") + "\n")
        test = tmp_path / "adult.test"
        test.write_text(ADULT_ROW + "\n")
        tr, _ = load_adult(str(train), str(test))
        assert len(tr) == 1

    def test_thermometer_blocks_monotone(self, tmp_path):
        train_path, test_path = write_adult_pair(tmp_path, n=200)
        tr, _ = load_adult(train_path, test_path)
        # age occupies the first block; its thermometer code must be a
        # prefix of ones whatever its deduplicated width turned out to be
        age_width = 0
        while age_width < tr.width and not np.array_equal(
            np.sort(np.unique(tr.features[:, age_width])), [0, 1]
        ):
            age_width += 1  # pragma: no cover - age block starts at 0
        block = tr.features[:, :4]
        assert not np.any((block[:, :-1] == 0) & (block[:, 1:] == 1))

    def test_field_count_and_label_errors(self, tmp_path):
        bad = tmp_path / "adult.data"
        bad.write_text("1, 2, 3\n")
        with pytest.raises(DataError, match=r"adult\.data:1.*15 fields"):
            load_adult(str(bad), str(bad))
        bad.write_text(ADULT_ROW.replace("<=50K", "55K") + "\n")
        with pytest.raises(DataError, match="unknown label"):
            load_adult(str(bad), str(bad))


def write_bc_file(tmp_path, n=80):
    rng = np.random.default_rng(3)
    ages = ["30-39", "40-49", "50-59", "60-69"]
    sizes = ["0-4", "10-14", "25-29", "50-54"]
    lines = []
    for i in range(n):
        label = "recurrence-events" if rng.random() < 0.3 else "no-recurrence-events"
        lines.append(
            f"{label},{ages[i % 4]},premeno,{sizes[i % 4]},0-2,no,"
            f"{1 + i % 3},left,left_low,no"
        )
    path = tmp_path / "breast-cancer.data"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBreastCancer:
    def test_fixed_width_and_split(self, tmp_path):
        path = write_bc_file(tmp_path)
        tr, te = load_breast_cancer(path, seed=0)
        assert tr.width == te.width == BREAST_CANCER_WIDTH == 51
        assert len(tr) + len(te) == 80
        assert abs(len(te) - 16) <= 1  # ~20%
        np.testing.assert_array_equal(tr.features.sum(axis=1), np.full(len(tr), 9))

    def test_split_stratified(self, tmp_path):
        path = write_bc_file(tmp_path, n=100)
        tr, te = load_breast_cancer(path, seed=1)
        whole_rate = (np.concatenate([tr.labels, te.labels]) == 1).mean()
        test_rate = (te.labels == 1).mean()
        assert abs(test_rate - whole_rate) < 0.08

    def test_seed_changes_split_deterministically(self, tmp_path):
        path = write_bc_file(tmp_path)
        a1, _ = load_breast_cancer(path, seed=0)
        a2, _ = load_breast_cancer(path, seed=0)
        b, _ = load_breast_cancer(path, seed=1)
        np.testing.assert_array_equal(a1.features, a2.features)
        assert not np.array_equal(a1.features, b.features)

    def test_missing_and_domain_errors(self, tmp_path):
        path = tmp_path / "breast-cancer.data"
        path.write_text(
            "no-recurrence-events,30-39,premeno,0-4,0-2,?,2,left,left_low,no\n"
            "recurrence-events,40-49,premeno,0-4,0-2,no,2,left,left_low,no\n"
        )
        tr, te = load_breast_cancer(str(path))
        assert len(tr) + len(te) == 1  # '?' row dropped
        path.write_text("recurrence-events,17-22,premeno,0-4,0-2,no,2,left,left_low,no\n")
        with pytest.raises(DataError, match="outside its domain"):
            load_breast_cancer(str(path))


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray, gz=False):
    n, r, c = images.shape
    img_bytes = (
        (2051).to_bytes(4, "big") + n.to_bytes(4, "big") + r.to_bytes(4, "big")
        + c.to_bytes(4, "big") + images.astype(np.uint8).tobytes()
    )
    lab_bytes = (2049).to_bytes(4, "big") + n.to_bytes(4, "big") + labels.astype(np.uint8).tobytes()
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lab_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    writer = gzip.open if gz else open
    with writer(img_path, "wb") as fh:
        fh.write(img_bytes)
    with writer(lab_path, "wb") as fh:
        fh.write(lab_bytes)
    return str(img_path), str(lab_path)


class TestMnist:
    def test_threshold_semantics(self, tmp_path):
        images = np.array([[[0, 127], [128, 255]]], dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.array([7]))
        ds = load_mnist(img, lab)
        np.testing.assert_array_equal(ds.features[0], [0, 0, 1, 1])
        assert ds.labels[0] == 7 and ds.class_count == 10 and ds.width == 4

    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        plain_dir = tmp_path / "plain"
        plain_dir.mkdir()
        plain = load_mnist(*write_idx_pair(plain_dir, images, labels))
        zipped = load_mnist(*write_idx_pair(tmp_path, images, labels, gz=True))
        np.testing.assert_array_equal(plain.features, zipped.features)
        np.testing.assert_array_equal(plain.labels, zipped.labels)

    def test_bad_magic_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.array([0]))
        with pytest.raises(DataError, match="bad magic"):
            load_mnist(lab, lab)
        with pytest.raises(DataError, match="bad magic"):
            load_mnist(img, img)

    def test_truncated_payload_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2))
        raw = open(img, "rb").read()
        open(img, "wb").write(raw[:-3])
        with pytest.raises(DataError, match="payload"):
            load_mnist(img, lab)

    def test_zero_images_load_empty(self, tmp_path):
        # the header's dimensions shape the features, as an empty MONK file loads as (0, 17)
        ds = load_mnist(*write_idx_pair(tmp_path, np.zeros((0, 28, 28), np.uint8), np.zeros(0)))
        assert ds.features.shape == (0, 784) and ds.features.dtype == np.uint8
        assert ds.labels.shape == (0,) and ds.width == 784 and ds.class_count == 10

    def test_count_mismatch_rejected(self, tmp_path):
        two, three = tmp_path / "two", tmp_path / "three"
        two.mkdir(), three.mkdir()
        img, _ = write_idx_pair(two, np.zeros((2, 2, 2), np.uint8), np.zeros(2))
        _, lab = write_idx_pair(three, np.zeros((3, 2, 2), np.uint8), np.zeros(3))
        with pytest.raises(DataError, match="images"):
            load_mnist(img, lab)


class TestResolution:
    def test_data_dir_precedence(self, monkeypatch):
        monkeypatch.delenv("GATENET_DATA", raising=False)
        assert resolve_data_dir("/x") == "/x"
        assert resolve_data_dir(None) == "data"
        monkeypatch.setenv("GATENET_DATA", "/env")
        assert resolve_data_dir(None) == "/env"
        assert resolve_data_dir("/x") == "/x"

    def test_monk_by_name_synthesizes(self, tmp_path):
        train, test = load_dataset("monk1", data_dir=str(tmp_path))
        assert len(train) == 124 and len(test) == 432
        assert (tmp_path / "monks-1.train").exists()

    def test_missing_files_name_the_path(self, tmp_path):
        with pytest.raises(DataError, match="adult.data"):
            load_dataset("adult", data_dir=str(tmp_path))
        with pytest.raises(DataError, match="unknown dataset"):
            load_dataset("cifar100", data_dir=str(tmp_path))

    def test_mnist_by_name(self, tmp_path):
        rng = np.random.default_rng(1)
        for prefix, n in (("train", 6), ("t10k", 4)):
            images = rng.integers(0, 256, size=(n, 2, 2), dtype=np.uint8)
            labels = rng.integers(0, 10, size=n, dtype=np.uint8)
            img, lab = write_idx_pair(tmp_path, images, labels)
            import os

            os.replace(img, tmp_path / f"{prefix}-images-idx3-ubyte")
            os.replace(lab, tmp_path / f"{prefix}-labels-idx1-ubyte")
        train, test = load_dataset("mnist", data_dir=str(tmp_path))
        assert len(train) == 6 and len(test) == 4 and train.width == 4

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from objslam.association import (
    DISTANCE_WEIGHT,
    MIN_DISTANCE,
    SEMANTIC_THRESHOLD,
    SEMANTIC_WEIGHT,
    EmbeddingTable,
    associate_long_term,
    association_weight,
    box_ious,
    solve_lsap,
)
from objslam.dataset import Detection
from objslam.geometry import BoundingBox2D, Pose, Quadric, quadric_rows

from helpers import box_area
from projection_oracle import BehindCamera, DegenerateConic, predict_bbox

FIXTURE = Path(__file__).parent / "data" / "embeddings_50d.txt"


def brute_force_lsap(W: np.ndarray) -> tuple[float, dict[int, int]]:
    """Oracle: enumerate every injective assignment of the smaller axis."""
    k, n = W.shape
    best_value = -np.inf
    best: dict[int, int] = {}
    if k <= n:
        for cols in itertools.permutations(range(n), k):
            value = sum(W[r, c] for r, c in enumerate(cols))
            if value > best_value:
                best_value = value
                best = {r: c for r, c in enumerate(cols)}
    else:
        for rows in itertools.permutations(range(k), n):
            value = sum(W[r, c] for c, r in enumerate(rows))
            if value > best_value:
                best_value = value
                best = {r: c for c, r in enumerate(rows)}
    return best_value, best


def det(box: BoundingBox2D, label: str = "mug", conf: float = 0.9,
        depth: float | None = None) -> Detection:
    return Detection(box, label, conf, depth)


def scalar_iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    """Reference: IoU of one pair of pixel boxes, 0 when disjoint."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (box_area(a) + box_area(b) - inter)


def iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    """box_ious of one pair."""
    return float(box_ious(a.as_array()[None], b.as_array()[None])[0, 0])


def reference_psi(a: str, b: str, table: EmbeddingTable, threshold: float) -> float:
    """Reference: the label rule of one pair, read off the table's vectors."""
    if a == b:
        return 1.0
    if a not in table.vectors or b not in table.vectors:
        return 0.0
    return float(np.linalg.norm(table.vectors[a] - table.vectors[b]) <= threshold)


def reference_weight(d, q, label, x, K, table) -> float:
    """Reference: the weight of one pair from the oracle projection, with the
    box center back-projected along its pinhole ray to the measured depth."""
    try:
        overlap = scalar_iou(d.bbox, predict_bbox(x, K, q))
    except (BehindCamera, DegenerateConic):
        overlap = 0.0
    w = overlap + SEMANTIC_WEIGHT * reference_psi(d.label, label, table, SEMANTIC_THRESHOLD)
    if d.center_depth is not None:
        u, v = d.bbox.center()
        ray = np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
        t_hat = x.rotation @ (d.center_depth * ray) + x.translation
        w += DISTANCE_WEIGHT / max(float(np.linalg.norm(q.t - t_hat)), MIN_DISTANCE)
    return w


def weights(dets, quadrics, labels, x, K, table) -> np.ndarray:
    """association_weight over a list of quadrics."""
    return association_weight(dets, quadric_rows(quadrics), labels, x, K, table)


def long_term(dets, landmarks, x, K):
    """associate_long_term over (id, quadric, label) triples."""
    ids = [lid for lid, _, _ in landmarks]
    labels = [label for _, _, label in landmarks]
    quadrics = quadric_rows([q for _, q, _ in landmarks])
    return associate_long_term(dets, ids, labels, quadrics, x, K, EmbeddingTable.empty())


class TestBBoxIoU:
    def test_identical(self):
        b = BoundingBox2D(10, 20, 110, 220)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox2D(0, 0, 1, 1), BoundingBox2D(5, 5, 6, 6)) == 0.0

    def test_unit_squares_offset_half(self):
        a = BoundingBox2D(0, 0, 1, 1)
        b = BoundingBox2D(0.5, 0, 1.5, 1)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(83)
        for _ in range(500):
            x1, y1 = rng.uniform(0, 100, size=2)
            a = BoundingBox2D(x1, y1, x1 + rng.uniform(1, 50), y1 + rng.uniform(1, 50))
            x2, y2 = rng.uniform(0, 100, size=2)
            b = BoundingBox2D(x2, y2, x2 + rng.uniform(1, 50), y2 + rng.uniform(1, 50))
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a), abs=1e-15)

    def test_matrix_equals_scalar_formula(self):
        rng = np.random.default_rng(84)
        corners = rng.uniform(0, 100, size=(13, 2))
        boxes = [BoundingBox2D(x, y, x + w, y + h)
                 for (x, y), (w, h) in zip(corners, rng.uniform(1, 50, size=(13, 2)))]
        a, b = boxes[:6], boxes[6:]
        M = box_ious(np.array([x.as_array() for x in a]), np.array([x.as_array() for x in b]))
        assert M.shape == (6, 7)
        for i, j in itertools.product(range(6), range(7)):
            assert M[i, j] == scalar_iou(a[i], b[j])

    def test_nan_row_overlaps_nothing(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[np.nan] * 4, [0.0, 0.0, 10.0, 10.0]])
        assert box_ious(a, b).tolist() == [[0.0, 1.0]]

    def test_empty_sides(self):
        assert box_ious(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)
        assert box_ious(np.zeros((2, 4)), np.zeros((0, 4))).shape == (2, 0)


class TestEmbeddings:
    def test_load_fixture(self):
        table = EmbeddingTable.load(FIXTURE)
        assert len(table.vectors) == 20
        assert table.vectors["mug"].shape == (50,)

    def test_load_word2vec_header_and_trailing_spaces(self, tmp_path):
        # word2vec.c writes a "<count> <dim>" first line and a space after
        # each row's last value.
        rows = FIXTURE.read_text().splitlines()
        path = tmp_path / "w2v.txt"
        path.write_text(f"{len(rows)} 50\n" + "".join(row + " \n" for row in rows))
        table, glove = EmbeddingTable.load(path), EmbeddingTable.load(FIXTURE)
        assert table.vectors.keys() == glove.vectors.keys()
        for token, vec in glove.vectors.items():
            np.testing.assert_array_equal(table.vectors[token], vec)

    def test_load_splits_rows_on_whitespace(self, tmp_path):
        path = tmp_path / "tabs.txt"
        path.write_text("mug\t1.0  2.0 \r\ncup 1.5\t2.5\n\n")
        table = EmbeddingTable.load(path)
        np.testing.assert_array_equal(table.vectors["mug"], [1.0, 2.0])
        np.testing.assert_array_equal(table.vectors["cup"], [1.5, 2.5])

    @pytest.mark.parametrize(
        "row", ["cup", "cup 1.0 x", "cup nan 1.0", "cup 1.0 -inf"],
        ids=["token-only", "non-numeric", "nan", "infinite"],
    )
    def test_load_rejects_a_bad_row(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"mug 1.0 2.0\n\n{row}\n")
        with pytest.raises(ValueError, match=f"{path}:3: bad embedding row"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize(
        "rows, error",
        [("mug 1.0 2.0\ncup 1.0 2.0\nmug 3.0 4.0\n", "repeated embedding token 'mug'"),
         ("mug 1.0 2.0\n\ncup 1.0 2.0 3.0\n", "embedding row has 3 values, expected 2")],
        ids=["repeated-token", "other-length"],
    )
    def test_load_rejects_a_row_unlike_the_earlier_ones(self, tmp_path, rows, error):
        path = tmp_path / "emb.txt"
        path.write_text(rows)
        with pytest.raises(ValueError, match=f"^{path}:3: {error}$"):
            EmbeddingTable.load(path)

    def test_semantic_indicator_groups(self):
        table = EmbeddingTable.load(FIXTURE)
        assert table.compatible(["monitor"], ["tv", "mug"], 4.0).tolist() == [[1.0, 0.0]]
        # Tighter threshold splits even in-group pairs.
        d = np.linalg.norm(table.vectors["monitor"] - table.vectors["tv"])
        assert table.compatible(["monitor"], ["tv"], d - 0.01).tolist() == [[0.0]]

    def test_identical_labels_need_no_table(self):
        table = EmbeddingTable.empty()
        assert table.compatible(["gizmo"], ["gizmo"], 4.0).tolist() == [[1.0]]
        assert table.missing_tokens == set()

    def test_missing_token_scores_zero_and_flags(self):
        table = EmbeddingTable.load(FIXTURE)
        assert table.compatible(["gizmo"], ["mug"], 4.0).tolist() == [[0.0]]
        assert table.missing_tokens == {"gizmo"}

    def test_distance_values(self):
        # |a - b| = sqrt(2) and |a - c| = sqrt(0.02): a threshold just above
        # a distance makes its pair compatible, one just below does not.
        table = EmbeddingTable(
            {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
             "c": np.array([1.1, 0.1])}
        )
        ab, ac = np.sqrt(2.0), np.sqrt(0.02)
        for threshold, row in ((ab * (1.0 + 1e-9), [1.0, 1.0]), (ab * (1.0 - 1e-9), [0.0, 1.0]),
                               (ac * (1.0 + 1e-9), [0.0, 1.0]), (ac * (1.0 - 1e-9), [0.0, 0.0])):
            assert table.compatible(["a"], ["b", "c"], threshold).tolist() == [row]

    def test_matrix_matches_per_pair_rule(self):
        # Known and absent tokens on both sides, repeats included: every
        # entry follows the per-pair rule, and exactly the absent tokens that
        # meet a different label are recorded.
        labels = ["monitor", "tv", "mug", "cup", "gizmo", "widget", "mug", "gizmo"]
        rng = np.random.default_rng(103)
        for _ in range(50):
            rows = list(rng.choice(labels, size=int(rng.integers(0, 5))))
            cols = list(rng.choice(labels, size=int(rng.integers(0, 5))))
            threshold = float(rng.uniform(0.0, 8.0))
            table = EmbeddingTable.load(FIXTURE)
            psi = table.compatible(rows, cols, threshold)
            assert psi.shape == (len(rows), len(cols))
            for i, j in itertools.product(range(len(rows)), range(len(cols))):
                assert psi[i, j] == reference_psi(rows[i], cols[j], table, threshold)
            missing = {token for a, b in itertools.product(rows, cols) if a != b
                       for token in (a, b) if token not in table.vectors}
            assert table.missing_tokens == missing


class TestAssociationWeight:
    def test_perfect_match_with_floored_distance(self, camera):
        # Sphere dead ahead: measured box equals the prediction, labels match,
        # and the back-projected center lands on the centroid, so the
        # distance term saturates at w_d / min_distance.
        q = Quadric(np.eye(3), np.array([0.0, 0.0, 4.0]), np.full(3, 0.5))
        x = Pose.identity()
        predicted = predict_bbox(x, camera, q)
        d = det(predicted, label="mug", depth=4.0)
        W = weights([d], [q], ["mug"], x, camera, EmbeddingTable.empty())
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(1.0 + 0.3 + 0.2 / 0.05, abs=1e-6)

    def test_formula_consistency(self, camera):
        rng = np.random.default_rng(89)
        table = EmbeddingTable.load(FIXTURE)
        x = Pose.identity()
        for _ in range(50):
            q = Quadric(
                np.eye(3),
                np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(3, 7)]),
                rng.uniform(0.1, 0.5, size=3),
            )
            center = rng.uniform([200, 150], [440, 330])
            box = BoundingBox2D(center[0] - 40, center[1] - 30, center[0] + 40, center[1] + 30)
            depth = float(rng.uniform(2, 6))
            d = det(box, label="cup", depth=depth)
            w = weights([d], [q], ["mug"], x, camera, table)[0, 0]
            expected = reference_weight(d, q, "mug", x, camera, table)
            assert w == pytest.approx(expected, abs=1e-12)

    def test_no_depth_omits_distance_term(self, camera):
        q = Quadric(np.eye(3), np.array([0.0, 0.0, 4.0]), np.full(3, 0.5))
        predicted = predict_bbox(Pose.identity(), camera, q)
        d = det(predicted, label="mug", depth=None)
        W = weights([d], [q], ["mug"], Pose.identity(), camera, EmbeddingTable.empty())
        assert W[0, 0] == pytest.approx(1.3, abs=1e-6)

    def test_invisible_landmark_keeps_semantic_term(self, camera):
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.5))
        d = det(BoundingBox2D(100, 100, 200, 200), label="mug")
        W = weights([d], [q], ["mug"], Pose.identity(), camera, EmbeddingTable.empty())
        assert W[0, 0] == pytest.approx(SEMANTIC_WEIGHT)

    def test_matrix_matches_per_pair_reference(self, camera):
        # 5 detections (two without depth) against 7 landmarks (one behind
        # the camera) under a non-trivial pose; every entry must equal the
        # oracle weight of its pair.
        rng = np.random.default_rng(91)
        table = EmbeddingTable.load(FIXTURE)
        x = Pose(Rotation.from_rotvec([0.05, -0.1, 0.08]).as_matrix(), np.array([0.2, -0.1, 0.3]))
        quadrics = [
            Quadric(Rotation.from_rotvec(rng.normal(scale=0.5, size=3)).as_matrix(),
                    x.rotation @ np.array([*rng.uniform(-1, 1, size=2), z]) + x.translation,
                    rng.uniform(0.1, 0.5, size=3))
            for z in (3.0, 4.0, 5.0, 6.0, 3.5, 4.5, -2.0)
        ]
        labels = ["mug", "cup", "monitor", "tv", "mug", "keyboard", "mug"]
        dets = []
        for k in range(5):
            c = rng.uniform([150, 100], [490, 380])
            half = rng.uniform(20, 60, size=2)
            depth = None if k in (1, 3) else float(rng.uniform(2, 6))
            dets.append(det(BoundingBox2D(*(c - half), *(c + half)),
                            label=["mug", "cup", "tv", "mug", "lamp"][k], depth=depth))
        # One detection is the exact prediction of landmark 0, so the box
        # term is exercised at full overlap too.
        dets[0] = det(predict_bbox(x, camera, quadrics[0]), label="mug", depth=3.0)
        W = weights(dets, quadrics, labels, x, camera, table)
        assert W.shape == (5, 7)
        for i, j in itertools.product(range(5), range(7)):
            expected = reference_weight(dets[i], quadrics[j], labels[j], x, camera, table)
            assert W[i, j] == pytest.approx(expected, abs=1e-12)
        assert W[0, 0] > 1.0 + SEMANTIC_WEIGHT


class TestLSAP:
    def test_square_example(self):
        result = solve_lsap(np.array([[0.9, 0.1], [0.2, 0.8]]), gate=0.2)
        assert result.matches == {0: 0, 1: 1}
        assert result.unmatched_detections == ()

    def test_rectangular_example(self):
        result = solve_lsap(np.array([[0.1, 0.9, 0.3], [0.8, 0.2, 0.7]]), gate=0.2)
        assert result.matches == {0: 1, 1: 0}

    def test_gate_blocks_weak_pairs(self):
        result = solve_lsap(np.array([[0.15]]), gate=0.2)
        assert result.matches == {}
        assert result.unmatched_detections == (0,)

    def test_empty_inputs(self):
        result = solve_lsap(np.zeros((0, 3)), gate=0.2)
        assert result.matches == {}
        result = solve_lsap(np.zeros((2, 0)), gate=0.2)
        assert result.unmatched_detections == (0, 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            W = rng.uniform(0.0, 1.0, size=(k, n))
            result = solve_lsap(W, gate=0.0)
            value = sum(W[r, c] for r, c in result.matches.items())
            best_value, best = brute_force_lsap(W)
            assert value == pytest.approx(best_value, abs=1e-12)
            assert result.matches == best


class TestLongTerm:
    def test_bijection_on_separated_landmarks(self, camera):
        x = Pose.identity()
        left = Quadric(np.eye(3), np.array([-1.0, 0.0, 4.0]), np.full(3, 0.4))
        right = Quadric(np.eye(3), np.array([1.0, 0.0, 4.0]), np.full(3, 0.4))
        landmarks = [(10, left, "mug"), (11, right, "bottle")]
        dets = [
            det(predict_bbox(x, camera, right), label="bottle", depth=4.0),
            det(predict_bbox(x, camera, left), label="mug", depth=4.0),
        ]
        result = long_term(dets, landmarks, x, camera)
        assert result.matches == {0: 11, 1: 10}
        assert result.unmatched_detections == ()

    def test_weak_pairs_stay_unmatched(self, camera):
        x = Pose.identity()
        lm = Quadric(np.eye(3), np.array([-1.0, 0.0, 4.0]), np.full(3, 0.4))
        # Different label, disjoint box, no depth: weight is zero.
        d = det(BoundingBox2D(500, 350, 600, 450), label="lamp")
        result = long_term([d], [(5, lm, "mug")], x, camera)
        assert result.matches == {}
        assert result.unmatched_detections == (0,)

    def test_one_landmark_per_detection(self, camera):
        # Two detections of the same landmark: only one may claim it.
        x = Pose.identity()
        lm = Quadric(np.eye(3), np.array([0.0, 0.0, 4.0]), np.full(3, 0.4))
        b = predict_bbox(x, camera, lm)
        dets = [det(b, label="mug", depth=4.0), det(b, label="mug", depth=4.0)]
        result = long_term(dets, [(3, lm, "mug")], x, camera)
        assert len(result.matches) == 1
        assert len(result.unmatched_detections) == 1

    def test_same_label_landmarks_split_by_position(self, camera):
        # Two mugs 2 m apart: the detection that back-projects onto the
        # right one is matched to it, not to the left one.
        x = Pose.identity()
        left = Quadric(np.eye(3), np.array([-1.0, 0.0, 4.0]), np.full(3, 0.4))
        right = Quadric(np.eye(3), np.array([1.0, 0.0, 4.0]), np.full(3, 0.4))
        d = det(predict_bbox(x, camera, right), depth=4.0)
        result = long_term([d], [(7, left, "mug"), (8, right, "mug")], x, camera)
        assert result.matches == {0: 8}

    def test_detection_order_does_not_matter(self, camera):
        # Detections with and without depth, under labels the embedding
        # fixture holds and one it lacks: every order of them permutes the
        # weight rows exactly, and each match stays with its detection.
        table = EmbeddingTable.load(FIXTURE)
        x = Pose(Rotation.from_rotvec([0.02, -0.05, 0.03]).as_matrix(), np.array([0.1, 0.0, -0.2]))
        landmarks = [
            Quadric(np.eye(3), x.rotation @ np.array(p) + x.translation, np.full(3, 0.3))
            for p in ((-1.2, 0.0, 4.0), (0.0, 0.5, 5.0), (1.2, -0.3, 4.5), (0.4, -0.6, 3.5))
        ]
        quadrics = quadric_rows(landmarks)
        ids, labels = [20, 21, 22, 23], ["mug", "monitor", "bottle", "gizmo"]
        dets = [
            det(predict_bbox(x, camera, landmarks[j]), label, depth=depth)
            for j, label, depth in ((2, "bottle", 4.5), (0, "cup", None), (3, "gizmo", 3.4),
                                    (1, "tv", None))
        ] + [det(BoundingBox2D(10, 10, 60, 50), label="lamp", depth=2.0)]
        W = association_weight(dets, quadrics, labels, x, camera, table)
        result = associate_long_term(dets, ids, labels, quadrics, x, camera, table)
        assert result.matches == {0: 22, 1: 20, 2: 23, 3: 21}
        for order in itertools.permutations(range(len(dets))):
            moved = [dets[i] for i in order]
            np.testing.assert_array_equal(
                association_weight(moved, quadrics, labels, x, camera, table), W[list(order)]
            )
            again = associate_long_term(moved, ids, labels, quadrics, x, camera, table)
            assert again.matches == {
                k: result.matches[i] for k, i in enumerate(order) if i in result.matches
            }

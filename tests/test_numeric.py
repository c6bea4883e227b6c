import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env
from mppkit.data import generate_synthetic, stratified_kfold
from mppkit.mlp import fit_mlp
from mppkit.numeric import (
    SeededRng,
    cross_entropy,
    derive_seed,
    finite_difference_gradient,
    l2_penalty,
    one_hot,
    softmax,
)


class TestSoftmax:
    def test_uniform_scores(self):
        p = softmax([0.0, 0.0, 0.0])
        assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        c = 0.7
        for a in (-100.0, 0.0, 3.5, 250.0):
            v = np.array([a, a + c, a + 2 * c])
            assert np.allclose(softmax(v), softmax(v - a), atol=1e-12)

    def test_log_ratios(self):
        # exponentials 1, 2, 4 normalize to sevenths
        p = softmax([0.0, math.log(2.0), math.log(4.0)])
        assert np.allclose(p, [1 / 7, 2 / 7, 4 / 7], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([0.0, float("inf"), 1.0])

    def test_prob_vector_invariants_and_argmax(self):
        rng = SeededRng(55)
        for _ in range(200):
            v = np.asarray(rng.random(3)) * 40 - 20
            p = softmax(v)
            assert np.all(p >= 0) and np.all(p <= 1)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.argmax(p) == np.argmax(v)

    def test_matrix_rows(self):
        m = softmax(np.array([[0.0, 0.0, 0.0], [0.0, math.log(2.0), math.log(4.0)]]))
        assert np.allclose(m[0], [1 / 3] * 3)
        assert np.allclose(m[1], [1 / 7, 2 / 7, 4 / 7])


def reference_softmax(a: np.ndarray) -> np.ndarray:
    """The row-max softmax written out: shift each row by its max, exp, divide by the row sum."""
    e = np.exp(a - a.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _same_bytes(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def sort_and_sum_digest() -> str:
    """sha256 over permutations and short row sums, the two CPU-independent parts `numeric` relies on.

    The permutations of 20 seeds at sizes up to 3000, and, for K = 1..7, the
    left-to-right column sums softmax divides by, beside numpy's own row sums
    of the same C- and F-ordered matrices (positive values over 60 binary
    orders of magnitude, scaled exactly by `ldexp`).
    """
    h = hashlib.sha256()
    for seed in range(20):
        for n in (0, 1, 2, 9, 240, 768, 3000):
            h.update(SeededRng(seed).permutation(n).tobytes())
    for k in range(1, 8):
        rng = SeededRng(k)
        e = np.ldexp(np.asarray(rng.random((2000, k))), rng.integers(-30, 30, (2000, k)))
        for rows in (e, np.asfortranarray(e)):
            cols = rows.T
            total = cols[0].copy()
            for j in range(1, k):
                total += cols[j]
            h.update(total.tobytes())
            h.update(np.add.reduce(rows, axis=-1).tobytes())
    return h.hexdigest()


class TestSoftmaxColumnMax:
    """`softmax` takes its row max across class columns and still gives the row-max reference's bits."""

    @staticmethod
    def scores(rows: int, k: int, seed: int) -> np.ndarray:
        a = np.asarray(SeededRng(seed).normal((rows, k))) * 25.0
        a[::4] = np.round(a[::4])  # some tied scores within a row
        return a

    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_layout_and_width(self, k):
        a = self.scores(37, k, seed=k)
        big = self.scores(80, 3 * k, seed=100 + k)
        cases = {
            "1-D": a[5],
            "C-ordered": a,
            "F-ordered": np.asfortranarray(a),
            "strided": big[::2, 1::3],
            "768 rows": self.scores(768, k, seed=200 + k),  # a gd_960 fold's
        }
        for name, scores in cases.items():
            got = softmax(scores)
            assert _same_bytes(got, reference_softmax(scores)), name
            assert not np.shares_memory(got, scores), name  # a fresh array, free to overwrite
        assert _same_bytes(softmax(a.tolist()), reference_softmax(a))
        assert _same_bytes(softmax(a[5].tolist()), reference_softmax(a[5]))

    def test_ties_and_signed_zeros(self):
        a = np.array([
            [-0.0, 0.0, -1.0],
            [0.0, -0.0, -1.0],
            [-0.0, -0.0, -0.0],
            [0.0, -2.5, -0.0],
            [-3.0, -3.0, -3.0],
            [7.25, -1.0, 7.25],
            [1e300, 1e300, -1e300],
        ])
        for scores in (a, np.asfortranarray(a), *a):
            assert _same_bytes(softmax(scores), reference_softmax(scores))

    @pytest.mark.parametrize(
        "row",
        [[0.0, np.inf, 1.0], [np.nan, 0.0, 1.0], [2.0, -np.inf, 1.0], [-np.inf, -np.inf, -np.inf]],
        ids=["+inf", "nan", "-inf among finite", "all -inf"],
    )
    def test_non_finite_input_is_refused_before_any_arithmetic(self, row):
        # under "raise" an inf - inf or a nan comparison would fail first, with FloatingPointError
        matrix = np.array([[0.5, 1.0, -2.0], row, [3.0, 3.0, 0.0]])
        with np.errstate(all="raise"):
            for scores in (np.array(row), matrix, np.asfortranarray(matrix)):
                with pytest.raises(ValueError, match="softmax requires finite input"):
                    softmax(scores)


class TestFiniteDifference:
    def test_quadratic(self):
        g = finite_difference_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        g = finite_difference_gradient(lambda v: 3.25, np.array([0.5, -0.5, 2.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: float("nan"), np.zeros(2))


class TestSeededRng:
    def test_matches_published_splitmix64_vectors(self):
        # reference output of the splitmix64 algorithm for seed 1234567
        assert [int(v) for v in SeededRng(1234567)._raw(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_frozen_uniform_stream(self):
        assert np.asarray(SeededRng(42).random(3)).tolist() == [
            0.7415648787718233,
            0.1599103928769201,
            0.27860113025513866,
        ]

    def test_frozen_permutation(self):
        assert SeededRng(5).permutation(10).tolist() == [3, 4, 2, 5, 0, 8, 7, 9, 1, 6]

    def test_permutation_is_the_stable_argsort_of_the_uniforms(self):
        # permutation sorts the integers under the uniforms: same order, same ties
        for seed in [0, 1, 5, 2**63, 2**64 - 1] + [derive_seed(3, i) for i in range(40)]:
            for n in (0, 1, 2, 3, 8, 9, 240, 768):
                assert np.array_equal(
                    SeededRng(seed).permutation(n),
                    np.argsort(SeededRng(seed).random(n), kind="stable"),
                ), (seed, n)

    @staticmethod
    def tied_keys(case: str) -> np.ndarray:
        if case == "all equal":
            return np.full(300, 7, dtype=np.uint64)
        if case == "five values":
            return SeededRng(2).integers(0, 5, 300).astype(np.uint64)
        if case == "equal pairs":
            return np.repeat(SeededRng(3).permutation(100).astype(np.uint64), 2)
        # three draws tied at 0 and three at the largest 53-bit value, amid distinct ones
        ends = np.concatenate([[0] * 3, SeededRng(4).permutation(200) + 1, [2**53 - 1] * 3]).astype(np.uint64)
        return ends[SeededRng(5).permutation(ends.size)]

    @pytest.mark.parametrize("case", ["all equal", "five values", "equal pairs", "ties at both ends"])
    def test_tied_keys_take_the_stable_argsort(self, case, monkeypatch):
        # 53-bit draws almost never tie; patched ones do, and must keep the
        # stable argsort's order, which numpy's default sort breaks on the
        # last three cases
        keys = self.tied_keys(case)
        rng = SeededRng(1)
        monkeypatch.setattr(rng, "_bits53", lambda n: keys[:n].copy())
        assert np.array_equal(rng.permutation(keys.size), np.argsort(keys, kind="stable"))

    def test_same_bits_without_avx512(self):
        # numpy's AVX512 sort and add kernels switched off in a child process,
        # as on an AVX2-only CPU (ROADMAP item 1); on a CPU without them the
        # child runs the native kernels and the check holds trivially
        env = cli_env()
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_numeric; "
                "print(test_numeric.sort_and_sum_digest())")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == sort_and_sum_digest()

    @pytest.mark.parametrize(
        "draw, size",
        [
            ("random", -2),
            ("random", (-1, -2)),
            ("random", (2, -1)),
            ("random", 2.5),
            ("random", True),
            ("random", (2, 1.0)),
            ("random", "ab"),
            ("normal", -1),
            ("normal", (False, 2)),
            ("permutation", -3),
            ("permutation", 2.5),
            ("permutation", True),
            ("permutation", np.int64(-1)),
        ],
    )
    def test_bad_draw_size_is_refused_before_the_counter_moves(self, draw, size):
        # unchecked, random(-2) moved the counter back and permutation(2.5) left a float counter
        rng = SeededRng(6)
        rng.random(3)
        with pytest.raises(ValueError, match="draw size must be a non-negative integer"):
            getattr(rng, draw)(size)
        fresh = SeededRng(6)
        fresh.random(3)
        assert np.array_equal(rng.random(4), fresh.random(4))

    def test_same_seed_same_stream(self):
        a, b = SeededRng(9), SeededRng(9)
        assert np.array_equal(np.asarray(a.random(100)), np.asarray(b.random(100)))
        assert np.array_equal(a.normal(50), b.normal(50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            np.asarray(SeededRng(1).random(10)), np.asarray(SeededRng(2).random(10))
        )

    def test_uniform_range(self):
        u = np.asarray(SeededRng(3).random(10_000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = np.asarray(SeededRng(11).normal(20_000))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_permutation_is_a_permutation(self):
        p = SeededRng(8).permutation(137)
        assert sorted(p.tolist()) == list(range(137))

    def test_integers_range(self):
        v = SeededRng(4).integers(0, 3, 1000)
        assert set(v.tolist()) == {0, 1, 2}

    def test_spawn_streams_are_stable_and_distinct(self):
        parent = SeededRng(77)
        child_a = parent.spawn(0)
        child_b = parent.spawn(1)
        assert child_a.seed == derive_seed(77, 0)
        assert not np.array_equal(
            np.asarray(child_a.random(10)), np.asarray(child_b.random(10))
        )

    def test_derive_seed_deterministic(self):
        assert derive_seed(123, 4) == derive_seed(123, 4)
        assert derive_seed(123, 4) != derive_seed(123, 5)

    @pytest.mark.parametrize("value", [1.7, "x", True, None])
    @pytest.mark.parametrize(
        "what, draw",
        [
            ("seed", SeededRng),
            ("seed", lambda seed: fit_mlp(generate_synthetic(30, 2, {0}, seed=1), epochs=2, seed=seed)),
            ("seed", lambda seed: stratified_kfold(generate_synthetic(30, 2, {0}, seed=1), 3, seed)),
            ("seed", lambda seed: generate_synthetic(30, 2, {0}, seed=seed)),
            ("seed", lambda seed: derive_seed(seed, 0)),
            ("index", lambda index: derive_seed(1, index)),
            ("index", lambda index: SeededRng(3).spawn(index)),
            ("low", lambda low: SeededRng(3).integers(low, 3, 4)),
            ("high", lambda high: SeededRng(3).integers(0, high, 4)),
        ],
        ids=["SeededRng", "fit_mlp", "stratified_kfold", "generate_synthetic", "derive_seed",
             "derive_seed_index", "spawn_index", "integers_low", "integers_high"],
    )
    def test_seed_must_be_an_integer(self, what, draw, value):
        # without the check, derive_seed and spawn truncate: 1.7 and True act as 1
        with pytest.raises(ValueError, match=f"{what} must be an integer, got {value!r}"):
            draw(value)

    def test_numpy_integer_seed_is_its_int(self):
        assert np.array_equal(SeededRng(np.int64(5)).random(4), SeededRng(5).random(4))
        assert np.array_equal(SeededRng(np.uint32(5)).random(4), SeededRng(5).random(4))
        assert derive_seed(np.int64(5), np.int32(2)) == derive_seed(5, 2)
        assert SeededRng(3).spawn(np.int64(2)).seed == SeededRng(3).spawn(2).seed

    @pytest.mark.parametrize("size, plain", [(np.int64(3), 3), (np.uint8(3), 3), ((np.int64(2), 3), (2, 3))])
    def test_numpy_integer_size_draws_as_its_int(self, size, plain):
        for draw in ("random", "normal"):
            got = getattr(SeededRng(4), draw)(size)
            assert np.array_equal(got, getattr(SeededRng(4), draw)(plain))
            assert got.shape == np.empty(plain).shape
        assert np.array_equal(SeededRng(4).integers(0, 3, size), SeededRng(4).integers(0, 3, plain))

    def test_numpy_integer_bounds_draw_as_their_int(self):
        got = SeededRng(4).integers(np.int64(-2), np.uint8(3), 50)
        assert np.array_equal(got, SeededRng(4).integers(-2, 3, 50))

    @pytest.mark.parametrize(
        "low, high, match",
        [
            (0, 2**70, "high must lie in the int64 range, got 1180591620717411303424"),
            (-(2**63) - 1, 0, "low must lie in the int64 range"),
            (0, 2**63, "high must lie in the int64 range"),
            (0, 2**53 + 1, r"integers requires high - low <= 2\*\*53, got 9007199254740993"),
            (-(2**62), 2**62, r"high - low <= 2\*\*53"),
            (3, 3, "integers requires high > low"),
        ],
        ids=["2**70", "below_int64", "2**63", "span_2**53+1", "span_2**63", "empty"],
    )
    def test_bad_integers_bound_is_refused_before_the_counter_moves(self, low, high, match):
        # unchecked, integers(0, 2**70, 2) returned the int64 minimum twice
        rng = SeededRng(6)
        rng.random(3)
        with pytest.raises(ValueError, match=match):
            rng.integers(low, high, 2)
        fresh = SeededRng(6)
        fresh.random(3)
        assert np.array_equal(rng.random(4), fresh.random(4))

    def test_integers_reach_both_ends_of_the_int64_range(self):
        assert SeededRng(5).integers(-(2**63), -(2**63) + 1, 3).tolist() == [-(2**63)] * 3
        assert SeededRng(5).integers(2**63 - 2, 2**63 - 1, 3).tolist() == [2**63 - 2] * 3
        top = SeededRng(5).integers(2**63 - 1 - 2**53, 2**63 - 1, 1000)  # the widest span
        assert top.min() >= 2**63 - 1 - 2**53 and top.max() < 2**63 - 1


class TestTrainingMath:
    def test_one_hot(self):
        assert one_hot(np.array([2, 0, 2]), 4).tolist() == [
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]

    def test_cross_entropy_is_mean_negative_log_of_the_label_probability(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
        loss = cross_entropy(probs, np.array([0, 2]))
        assert type(loss) is float
        assert loss == pytest.approx(-(math.log(0.5) + math.log(0.7)) / 2)

    def test_cross_entropy_floors_a_zero_probability(self):
        loss = cross_entropy(np.array([[1.0, 0.0]]), np.array([1]))
        assert loss == pytest.approx(-math.log(1e-300))

    def test_l2_penalty_skips_the_bias_column(self):
        w = np.array([[1.0, 2.0, 100.0], [3.0, 0.0, -100.0]])
        assert l2_penalty(0.5, w) == 0.5 * 0.5 * 14.0
        assert l2_penalty(2.0, np.array([3.0, 4.0, 9.0])) == 25.0  # a 1-D weight vector
        assert l2_penalty(2.0, w, np.array([[1.0, 5.0]])) == 15.0
        assert type(l2_penalty(0, w)) is float

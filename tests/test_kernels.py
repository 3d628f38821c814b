import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qksim import cli, kernels, linalg, rng
from qksim.rng import EntryStreams, stream

from oracles import gram_density_trace, gram_ideal_formula, shot_means_reference


def make_noise(p_tilde=0.0, layers=8, mixing=kernels.MIX_INVERSE_DIM):
    return kernels.NoiseModel(rate_per_layer=p_tilde, layers=layers, mixing=mixing)


class TestNoiseModel:
    def test_rate_folding(self):
        noise = make_noise(0.001, layers=8)
        assert noise.rate == pytest.approx(1.0 - 0.999**8)

    def test_zero_rate_iff_zero_per_layer(self):
        assert make_noise(0.0).rate == 0.0
        assert make_noise(1e-9).rate > 0.0

    def test_mixing_constants(self):
        assert make_noise().mixing_constant(2) == 0.25
        half = make_noise(mixing=kernels.MIX_HALF_INVERSE_DIM)
        assert half.mixing_constant(2) == 0.125

    def test_validation(self):
        with pytest.raises(ValueError):
            make_noise(-0.1)
        with pytest.raises(ValueError):
            make_noise(0.1, layers=0)
        with pytest.raises(ValueError):
            kernels.NoiseModel(0.1, mixing="bogus")


class TestGramIdeal:
    def test_single_row(self):
        g = kernels.gram_ideal(np.array([[0.4, -0.2]]))
        assert g.matrix.shape == (1, 1)
        assert g.matrix[0, 0] == 1.0

    def test_duplicate_rows_give_unit_entry(self):
        x = np.array([[0.3, 0.1], [0.3, 0.1], [0.9, -0.5]])
        g = kernels.gram_ideal(x).matrix
        assert g[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_density_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(4, 2))
        got = kernels.gram_ideal(x).matrix
        want = gram_density_trace(x)
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize(
        "num_qubits, rows", [(1, 1), (1, 4), (2, 7), (2, 301), (7, 13), (12, 1), (12, 9)]
    )
    def test_in_place_steps_keep_the_formula_bits(self, num_qubits, rows):
        x = np.random.default_rng(rows).uniform(-2, 2, size=(rows, num_qubits))
        assert kernels.gram_ideal(x).matrix.tobytes() == gram_ideal_formula(x).tobytes()

    def test_psd_and_range(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=(8, 3))
            g = kernels.gram_ideal(x).matrix
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-9
            assert np.all((g >= 0.0) & (g <= 1.0))
            assert np.allclose(np.diag(g), 1.0, atol=1e-12)


class TestApplyNoise:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(3)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(5, 2)))
        qt = kernels.apply_noise(q, make_noise(0.0))
        assert np.array_equal(qt.matrix, q.matrix)

    def test_mixture_value(self):
        # (1 - 0.1) * 1 + 0.1 * 0.25 with a unit entry at N=2
        x = np.array([[0.3, 0.1], [0.3, 0.1]])
        q = kernels.gram_ideal(x)
        qt = kernels.apply_noise(q, make_noise(0.1, layers=1), fix_diagonal=False)
        assert qt.matrix[0, 1] == pytest.approx(0.925, abs=1e-12)
        assert qt.matrix[0, 0] == pytest.approx(0.925, abs=1e-12)

    def test_folded_rate_applied_entrywise(self):
        rng = np.random.default_rng(4)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(4, 2)))
        noise = make_noise(0.001, layers=8)
        qt = kernels.apply_noise(q, noise, fix_diagonal=False)
        p = 1.0 - 0.999**8
        want = (1.0 - p) * q.matrix + p * 0.25
        assert np.allclose(qt.matrix, want, atol=1e-15)

    def test_fix_diagonal_pins_ones(self):
        rng = np.random.default_rng(5)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(4, 2)))
        qt = kernels.apply_noise(q, make_noise(0.2, layers=2), fix_diagonal=True)
        assert np.all(np.diag(qt.matrix) == 1.0)

    def test_entry_bounds(self):
        rng = np.random.default_rng(6)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(6, 2)))
        noise = make_noise(0.05, layers=4)
        qt = kernels.apply_noise(q, noise, fix_diagonal=False)
        p, c = noise.rate, 0.25
        assert np.min(qt.matrix) >= p * c - 1e-15
        assert np.max(qt.matrix) <= (1 - p) + p * c + 1e-15
        assert np.allclose(np.diag(qt.matrix), (1 - p) + p * c)

    def test_psd_preserved_without_diagonal_fix(self):
        # uniform mixing adds a PSD rank-one term, so the mixture stays PSD
        rng = np.random.default_rng(7)
        for trial in range(200):
            x = rng.uniform(-1, 1, size=(int(rng.integers(2, 10)), 2))
            q = kernels.gram_ideal(x)
            noise = make_noise(float(rng.uniform(0, 0.3)), layers=4)
            qt = kernels.apply_noise(q, noise, fix_diagonal=False)
            assert np.min(np.linalg.eigvalsh(qt.matrix)) >= -1e-9

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        num_qubits=st.integers(1, 4),
        rows=st.integers(2, 8),
        p_tilde=st.floats(0.0, 1.0),
        layers=st.integers(1, 12),
        fix_diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_entrywise_bound_for_half_constant(
        self, num_qubits, rows, p_tilde, layers, fix_diagonal, seed
    ):
        # the paper's entrywise bound |q~ - q| <= p (q + 2^-(N+1)) holds on
        # every entry of the bound-side mixture, pinned diagonal or not
        x = np.random.default_rng(seed).uniform(-1, 1, size=(rows, num_qubits))
        q = kernels.gram_ideal(x)
        noise = make_noise(p_tilde, layers=layers, mixing=kernels.MIX_HALF_INVERSE_DIM)
        qt = kernels.apply_noise(q, noise, fix_diagonal=fix_diagonal)
        bound = noise.rate * (q.matrix + 2.0 ** (-(num_qubits + 1)))
        assert np.all(np.abs(qt.matrix - q.matrix) <= bound + 1e-12)
        assert qt.params == dict(num_qubits=num_qubits, p_tilde=p_tilde, layers=layers,
                                 p=noise.rate, mixing=noise.mixing, fix_diagonal=fix_diagonal)

    def test_wrong_provenance_rejected(self):
        rng = np.random.default_rng(9)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(3, 2)))
        qt = kernels.apply_noise(q, make_noise(0.1))
        with pytest.raises(ValueError):
            kernels.apply_noise(qt, make_noise(0.1))


def sampled_pair(n=5, p_tilde=0.05, m=20, seed=0, fix_diagonal=True):
    rng = np.random.default_rng(seed + 1000)
    x = rng.uniform(-1, 1, size=(n, 2))
    q = kernels.gram_ideal(x)
    qt = kernels.apply_noise(q, make_noise(p_tilde, layers=4), fix_diagonal)
    w = kernels.sample_shots(qt, m, seed)
    return q, qt, w


class TestSampleShots:
    @pytest.mark.parametrize("value", [2.5, True, False])
    def test_parse_shots_rejects_fractions_and_bools(self, value):
        message = f"shot count must be an integer, got {value}"
        with pytest.raises(ValueError, match=message):
            kernels.parse_shots(value)

    def test_parse_shots_takes_a_c_long(self):
        assert kernels.parse_shots(2**63 - 1) == 2**63 - 1
        assert kernels.parse_shots(str(2**63 - 1)) == 2**63 - 1
        for value in (2**63, 1e19, str(2**63)):
            with pytest.raises(ValueError, match=r"must be <= 2\*\*63 - 1"):
                kernels.parse_shots(value)

    def test_certain_entries_are_exact(self):
        x = np.array([[0.3, 0.1], [0.3, 0.1]])  # duplicate rows: fidelity 1
        q = kernels.gram_ideal(x)
        qt = kernels.apply_noise(q, make_noise(0.0), fix_diagonal=False)
        w = kernels.sample_shots(qt, 7, seed=3)
        assert np.all(w.matrix == 1.0)

    def test_zero_probability_entry(self):
        qt = kernels.KernelMatrix(
            matrix=np.array([[1.0, 0.0], [0.0, 1.0]]),
            provenance=kernels.NOISY_EXPECTATION,
            params={"fix_diagonal": True},
        )
        w = kernels.sample_shots(qt, 11, seed=5)
        assert w.matrix[0, 1] == 0.0

    def test_grid_values_and_symmetry(self):
        _, _, w = sampled_pair(n=6, m=13, seed=2)
        off = w.matrix[~np.eye(6, dtype=bool)]
        assert np.allclose(np.round(off * 13), off * 13, atol=1e-12)
        assert np.array_equal(w.matrix, w.matrix.T)

    def test_diagonal_pinned_when_fixed_upstream(self):
        _, _, w = sampled_pair(m=9, seed=4, fix_diagonal=True)
        assert np.all(np.diag(w.matrix) == 1.0)

    def test_diagonal_sampled_when_not_fixed(self):
        _, qt, w = sampled_pair(m=9, seed=4, fix_diagonal=False)
        # diagonal entries are k/9 draws, not pinned ones
        assert np.any(w.matrix.diagonal() != 1.0)

    def test_deterministic_and_schedule_independent(self):
        _, qt, w1 = sampled_pair(m=17, seed=11)
        w2 = kernels.sample_shots(qt, 17, seed=11)
        assert np.array_equal(w1.matrix, w2.matrix)
        # each entry reproducible in isolation from its keyed stream
        i, j = 1, 3
        g = stream(11, "shots", i, j)
        assert w1.matrix[i, j] == g.binomial(17, qt.matrix[i, j]) / 17

    def test_large_m_concentrates(self):
        # 10-sigma band around a 0.5 entry at m = 1e6
        qt = kernels.KernelMatrix(
            matrix=np.array([[1.0, 0.5], [0.5, 1.0]]),
            provenance=kernels.NOISY_EXPECTATION,
            params={"fix_diagonal": True},
        )
        m = 10**6
        w = kernels.sample_shots(qt, m, seed=7)
        assert abs(w.matrix[0, 1] - 0.5) <= 5.0 * 0.5 / math.sqrt(m)

    def test_unbiased_over_seeds(self):
        n, m, reps = 3, 16, 2000
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(n, 2))
        q = kernels.gram_ideal(x)
        qt = kernels.apply_noise(q, make_noise(0.05, layers=4))
        acc = np.zeros((n, n))
        for seed in range(reps):
            acc += kernels.sample_shots(qt, m, seed).matrix
        mean = acc / reps
        band = 6.0 * np.sqrt(qt.matrix * (1 - qt.matrix) / (m * reps))
        assert np.all(np.abs(mean - qt.matrix) <= band + 1e-12)

    def test_inf_sentinel_bypasses_sampling(self):
        _, qt, _ = sampled_pair(seed=1)
        w = kernels.sample_shots(qt, "inf", seed=1)
        assert np.array_equal(w.matrix, qt.matrix)
        assert w.params["shots"] == "inf"

    def test_invalid_m(self):
        _, qt, _ = sampled_pair(seed=1)
        with pytest.raises(ValueError):
            kernels.sample_shots(qt, 0, seed=1)

    def test_requires_noisy_expectation(self):
        rng = np.random.default_rng(3)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(3, 2)))
        with pytest.raises(ValueError):
            kernels.sample_shots(q, 5, seed=0)

    def test_triangle_envelope(self):
        # |Q_ij - W_ij| <= p (1 + 2^-(N+1)) + gap/2 fails no more often than
        # the concentration envelope allows
        x = np.array([[0.4, -0.3], [-0.8, 0.6]])
        q = kernels.gram_ideal(x)
        noise = make_noise(0.02, layers=4, mixing=kernels.MIX_HALF_INVERSE_DIM)
        qt = kernels.apply_noise(q, noise)
        p = noise.rate
        margin = p * (1.0 + 2.0**-3)
        trials = 10**4
        for m in (10, 100):
            for gap in (0.1, 0.2):
                draws = np.array(
                    [
                        stream(seed, "shots", 0, 1).binomial(m, qt.matrix[0, 1]) / m
                        for seed in range(trials)
                    ]
                )
                rate = np.mean(np.abs(q.matrix[0, 1] - draws) >= margin + gap / 2)
                bound = 2.0 * math.exp(-(gap**2) * m / 2.0)
                slack = 3.0 * math.sqrt(max(bound * (1 - bound), 0.0) / trials) + 1e-6
                assert rate <= bound + slack, (m, gap, rate, bound)


class TestRbf:
    def test_unit_diagonal_and_duplicates(self):
        x = np.array([[0.1, 0.2], [0.1, 0.2], [0.9, 0.9]])
        k = kernels.rbf_gram(x, 1.3).matrix
        assert np.all(np.diag(k) == 1.0)
        assert k[0, 1] == pytest.approx(1.0)

    def test_known_value(self):
        k = kernels.rbf_gram(np.array([[0.0], [1.0]]), 1.0).matrix
        assert k[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_large_gamma_limit(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        k = kernels.rbf_gram(x, 1e4).matrix
        assert np.max(np.abs(k - np.eye(3))) <= 1e-12

    def test_psd(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, size=(10, 4))
        k = kernels.rbf_gram(x, 0.7).matrix
        assert np.min(np.linalg.eigvalsh(k)) >= -1e-9

    def test_cross_width_mismatch(self):
        with pytest.raises(ValueError):
            kernels.rbf_cross(np.zeros((2, 3)), np.zeros((2, 2)), 1.0)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            kernels.rbf_gram(np.zeros((2, 2)), 0.0)


class TestQuantumCross:
    def test_ideal_mode_equals_fidelity(self):
        rng = np.random.default_rng(15)
        xtr = rng.uniform(-1, 1, size=(4, 2))
        xte = rng.uniform(-1, 1, size=(3, 2))
        cross = kernels.quantum_cross(xtr, xte, make_noise(0.0), "inf", seed=0)
        from qksim import qsim

        def encode(x):
            return qsim.feature_states(x[None, :])[0]

        for t in range(3):
            for i in range(4):
                fidelity = abs(np.vdot(encode(xtr[i]), encode(xte[t]))) ** 2
                assert cross[t, i] == pytest.approx(fidelity, abs=1e-12)

    def test_same_point_gives_one(self):
        x = np.array([[0.5, -0.5]])
        cross = kernels.quantum_cross(x, x, make_noise(0.0), "inf", seed=0)
        assert cross[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_density_oracle_ideal(self):
        rng = np.random.default_rng(16)
        xtr = rng.uniform(-1, 1, size=(3, 3))
        xte = rng.uniform(-1, 1, size=(2, 3))
        cross = kernels.quantum_cross(xtr, xte, make_noise(0.0), "inf", seed=0)
        rhos_tr = gram_density_trace(np.vstack([xte, xtr]))
        assert np.max(np.abs(cross - rhos_tr[:2, 2:])) <= 1e-10

    def test_sampled_mode_deterministic(self):
        rng = np.random.default_rng(17)
        xtr = rng.uniform(-1, 1, size=(4, 2))
        xte = rng.uniform(-1, 1, size=(3, 2))
        noise = make_noise(0.05, layers=4)
        a = kernels.quantum_cross(xtr, xte, noise, 25, seed=9)
        b = kernels.quantum_cross(xtr, xte, noise, 25, seed=9)
        assert np.array_equal(a, b)
        assert np.allclose(np.round(a * 25), a * 25, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="feature width mismatch: train 2, test 3"):
            kernels.quantum_cross(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("encode", [
        lambda x: kernels.gram_ideal(x),
        lambda x: kernels.quantum_cross(x, x),
        lambda x: kernels.quantum_cross(np.zeros((2, 2)), x),
    ])
    def test_feature_rank_checked(self, encode):
        # numpy's own "too many values to unpack" named no matrix
        with pytest.raises(ValueError, match="feature matrix must be 2-D .* got 3-D"):
            encode(np.zeros((2, 2, 2)))


class TestSamplerOracle:
    """Every sampled entry is one Bernoulli mean from its own keyed stream."""

    @pytest.mark.parametrize("fix_diagonal", [True, False])
    def test_sample_shots_every_entry(self, fix_diagonal):
        n, m, seed = 30, 13, 21
        _, qt, w = sampled_pair(n=n, m=m, seed=seed, fix_diagonal=fix_diagonal)
        for i in range(n):
            for j in range(i, n):
                if i == j and fix_diagonal:
                    assert w.matrix[i, j] == 1.0
                else:
                    g = stream(seed, "shots", i, j)
                    assert w.matrix[i, j] == g.binomial(m, qt.matrix[i, j]) / m
        assert np.array_equal(np.tril(w.matrix), np.triu(w.matrix).T)

    def test_sample_cross_every_entry(self):
        rng = np.random.default_rng(22)
        xtr, xte = rng.uniform(-1, 1, size=(20, 3)), rng.uniform(-1, 1, size=(12, 3))
        noise, m, seed = make_noise(0.05, layers=4), 11, 8
        fid = kernels.quantum_cross(xtr, xte, None, "inf")
        probs = (1.0 - noise.rate) * fid + noise.rate * 2.0**-3
        got = kernels.sample_cross(fid, noise, 3, m, seed)
        for t in range(12):
            for i in range(20):
                g = stream(seed, "cross", t, i)
                assert got[t, i] == g.binomial(m, probs[t, i]) / m

    @pytest.mark.parametrize("m", [7, "inf"])
    @pytest.mark.parametrize(
        "noise",
        [
            None,
            make_noise(0.0),
            make_noise(0.05, layers=4),
            make_noise(0.05, layers=4, mixing=kernels.MIX_HALF_INVERSE_DIM),
        ],
    )
    def test_quantum_cross_composes_the_stages(self, noise, m):
        rng = np.random.default_rng(23)
        xtr, xte = rng.uniform(-1, 1, size=(6, 2)), rng.uniform(-1, 1, size=(3, 2))
        fid = kernels.quantum_cross(xtr, xte, None, "inf")
        got = kernels.quantum_cross(xtr, xte, noise, m, seed=4)
        assert np.array_equal(got, kernels.sample_cross(fid, noise, 2, m, seed=4))
        if noise is not None and noise.rate == 0.0:  # mixing at rate 0 is exact
            assert np.array_equal(got, kernels.sample_cross(fid, None, 2, m, seed=4))


def assert_draws_match_streams(m, probs, seed=3, role="shots", reps=40):
    """``EntryStreams.binomial`` equals one fresh stream's ``binomial`` per entry."""
    p = np.repeat(np.asarray(probs, dtype=float), reps)
    i = np.arange(p.size)
    j = (7 * i) % 11
    got = EntryStreams(seed, role, i, j).binomial(m, p)
    want = [
        stream(seed, role, a, b).binomial(m, q)
        for a, b, q in zip(i.tolist(), j.tolist(), p.tolist())
    ]
    assert got.dtype == np.int64
    assert got.tolist() == want


def forbid_scalar_draws(monkeypatch) -> list[int]:
    """Count every Philox bit generator built and every ``rng.stream`` call:
    the array pass builds none, so ``calls[0]`` must stay 0."""
    calls, philox, scalar = [0], np.random.Philox, rng.stream

    def counted(build):
        def spy(*args, **kwargs):
            calls[0] += 1
            return build(*args, **kwargs)

        return spy

    monkeypatch.setattr(np.random, "Philox", counted(philox))
    monkeypatch.setattr(rng, "stream", counted(scalar))
    return calls


def stream_with_first_block(seed, role, i, j, words) -> np.random.Generator:
    """``stream(seed, role, i, j)`` whose first Philox block reads ``words``;
    its later blocks are the stream's own."""
    g = stream(seed, role, i, j)
    state = g.bit_generator.state
    state["state"]["counter"][0] = 1  # the first block is the one buffered
    state.update(buffer=np.array(words, dtype=np.uint64), buffer_pos=0)
    g.bit_generator.state = state
    return g


def count_blocks(monkeypatch) -> list[int]:
    """Spy on ``rng.philox_block``: the highest Philox block read for any entry."""
    seen, philox = [0], rng.philox_block

    def spy(seed, role, i, j, block=1):
        seen[0] = max(seen[0], int(np.max(block)))
        return philox(seed, role, i, j, block)

    monkeypatch.setattr(rng, "philox_block", spy)
    return seen


def _index(i, k):
    """Where stream ``k`` sits in the index array ``i`` of one block call."""
    return np.flatnonzero(np.asarray(i) == k)


def sweep_config(**overrides) -> cli.SweepConfig:
    """One shots-sweep cell: N=2, n=200, test 100."""
    raw = {
        "dataset": {"kind": "synthetic"}, "test_size": 100, "noise_rates": [0.05],
        "methods": ["nearest"], "num_qubits": 2, "train_sizes": [200],
        "shots": [10], "seeds": [0],
    }
    return cli.SweepConfig.from_dict({**raw, **overrides})


@pytest.fixture(scope="module")
def sweep_pool():
    return cli.build_pool(sweep_config(), 200, 0)


@pytest.fixture(scope="module")
def sweep_gram(sweep_pool):
    """The shots-sweep train Gram: N=2, n=200, rate 0.05, pinned diagonal."""
    ideal = kernels.KernelMatrix(sweep_pool.q_train_ideal, kernels.IDEAL, {"num_qubits": 2})
    return kernels.apply_noise(ideal, make_noise(0.05), fix_diagonal=True)


class TestArraySampler:
    """The array pass draws every entry with its scalar stream's bits."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stopped walks step unmasked
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 1000, 10**6, 2**53 + 1, 2**63 - 1])
    def test_edge_cases_match_streams(self, m):
        at30 = 30.0 / m  # m p = 30 switches numpy from inversion to BTPE
        probs = [0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, 0.25, 0.9]
        for p in (np.nextafter(at30, 0.0), at30, np.nextafter(at30, 1.0)):
            if p <= 1.0:
                probs += [p, 1.0 - p]
        assert_draws_match_streams(m, probs)

    @pytest.mark.parametrize("m", [2**53 + 1, 10**17 + 3, 2**63 - 1])
    def test_means_round_like_python_int_division(self, m):
        # above 2**53 float64(count) / float64(m) rounds twice; count / m once
        probs = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.7], [0.5, 0.7, 1.0]])
        qt = kernels.KernelMatrix(probs, kernels.NOISY_EXPECTATION, {"fix_diagonal": True})
        w = kernels.sample_shots(qt, m, seed=6).matrix
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert w[i, j] == stream(6, "shots", i, j).binomial(m, probs[i, j]) / m

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m, p", [(1000, 0.001), (2**63 - 1, 1e-18)])
    def test_inversion_restarts_match_the_stream(self, monkeypatch, m, p):
        # Binomial(1000, 0.001) walks to X = 15 at most; a uniform past the
        # mass up to there makes numpy restart on the stream's next double.
        # Entry 1 restarts once; entry 2 spends all four doubles of its first
        # block and goes on in the next round, on block 2
        philox, read = rng.philox_block, []
        top = np.uint64((1 << 64) - 1)  # the double 1 - 2**-53

        def restarting(seed, role, i, j, block=1):
            words = philox(seed, role, i, j, block)
            read.append(block)
            if block == 1:
                words[0, _index(i, 1)] = top
                words[:, _index(i, 2)] = top
            return words

        monkeypatch.setattr(rng, "philox_block", restarting)
        calls = forbid_scalar_draws(monkeypatch)
        got = EntryStreams(4, "shots", np.arange(3), np.zeros(3, int)).binomial(m, np.full(3, p))
        assert calls[0] == 0 and read == [1, 2]
        monkeypatch.undo()
        for k in range(3):
            words = philox(4, "shots", [k], [0])[:, 0]
            words[:1 if k == 1 else 4 if k == 2 else 0] = top
            want = stream_with_first_block(4, "shots", k, 0, words).binomial(m, p)
            assert got[k] == want, k

    @pytest.mark.parametrize("m, p", [(10**6, 0.5), (2**63 - 1, 0.5), (2**63 - 1, 0.3)])
    def test_step52_and_later_attempts_match_streams(self, monkeypatch, m, p):
        # a BTPE candidate off the parallelogram is almost always more than
        # 20 from the mode here (numpy's Step 52), and some entries reject
        # both attempts of block 1 and draw their third from block 2
        squeezed, step52 = [0], rng._step52

        def spy(*args):
            squeezed[0] += 1
            return step52(*args)

        monkeypatch.setattr(rng, "_step52", spy)
        blocks = count_blocks(monkeypatch)
        assert_draws_match_streams(m, [p], reps=400)
        assert squeezed[0] > 0 and blocks[0] >= 2

    @pytest.mark.parametrize("m", [61, 62, 75, 100, 137, 200])
    def test_long_step50_products_match_streams(self, monkeypatch, m):
        # just above m p = 30, n p q is below 42, so no candidate reaches Step
        # 52 and a tail candidate's Step 50 product runs over dozens of terms
        reach, product = [0], rng._product

        def spy(a, s, low, d, live):
            reach[0] = max(reach[0], int(np.abs(d[live]).max(initial=0.0)))
            return product(a, s, low, d, live)

        monkeypatch.setattr(rng, "_product", spy)
        at30 = 30.0 / m
        probs = [np.nextafter(at30, 1.0)] + [min(at30 * f, 0.5) for f in (1.001, 1.02, 1.1)]
        assert_draws_match_streams(m, probs + [1.0 - p for p in probs], reps=100)
        assert reach[0] > 20

    def test_each_algorithm_sees_only_its_own_entries(self, monkeypatch):
        # two groups of more than a chunk each, interleaved: no pass of one
        # algorithm holds the other's entries or a stand-in rate, in round 1
        # or in the BTPE group's round 2
        m, seen = 100, {"_inversion": [], "_btpe": []}

        def spy(name, step):
            def wrapper(m, r, u4, todo):
                seen[name].append(r.copy())
                return step(m, r, u4, todo)

            return wrapper

        for name in seen:
            monkeypatch.setattr(rng, name, spy(name, getattr(rng, name)))
        size = rng._CHUNK + 500
        draw = np.random.default_rng(5).uniform
        p = np.concatenate([draw(0.19, 0.21, size), draw(0.44, 0.46, size)])
        p[::3] = 1.0 - p[::3]  # numpy draws these at rate 1 - p
        p = np.random.default_rng(6).permutation(p)
        assert_draws_match_streams(m, p, reps=1)
        r = np.minimum(p, 1.0 - p)
        own = r[r * m > 30.0]
        assert own.size == size and 0.5 not in p
        assert all(np.all(rates * m <= 30.0) for rates in seen["_inversion"])
        assert all(np.isin(rates, own).all() for rates in seen["_btpe"])
        assert len(seen["_btpe"]) > -(-size // rng._CHUNK)  # round 2 ran

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        m=st.one_of(st.integers(1, 3000), st.integers(1, 2**63 - 1)),
        p=st.floats(0.0, 1.0),
    )
    def test_property_matches_streams(self, m, p):
        assert_draws_match_streams(m, [p], seed=11, role="cross", reps=8)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        m=st.one_of(st.integers(61, 3000), st.integers(61, 2**63 - 1)),
        data=st.data(),
    )
    def test_property_one_call_mixes_both_algorithms(self, m, data):
        # entries that run inversion and BTPE, and finish at different
        # attempts, are drawn by one call, each group in passes of its own
        at30 = 30.0 / m  # m p = 30 switches numpy from inversion to BTPE
        near30 = st.floats(0.9 * at30, min(1.1 * at30, 0.5))
        rate = st.one_of(
            near30, near30.map(lambda p: 1.0 - p), st.floats(0.0, 1e-3),
            st.floats(0.45, 0.55), st.floats(1.0 - 1e-3, 1.0),
        )
        probs = np.array(data.draw(st.lists(rate, min_size=2, max_size=40)))
        btpe = np.minimum(probs, 1.0 - probs) * m > 30.0
        assume(btpe.any() and not btpe.all())
        assert_draws_match_streams(m, probs, seed=12, role="shots", reps=3)

    def test_sweep_shaped_batch_equals_reference_with_no_scalar_draws(
        self, monkeypatch, sweep_gram
    ):
        # a change that sends any entry back through a per-entry stream fails
        # here, not only in the benchmark
        rows, cols = np.triu_indices(200, k=1)
        upper = list(zip(rows.tolist(), cols.tolist()))
        for m in (10, 100, 1000):
            want = shot_means_reference(sweep_gram.matrix, m, 0, "shots", upper)
            calls = forbid_scalar_draws(monkeypatch)
            w = kernels.sample_shots(sweep_gram, m, seed=0).matrix
            monkeypatch.undo()
            assert calls[0] == 0
            assert np.array_equal(w[rows, cols], want[rows, cols])

    @pytest.mark.parametrize("m", [10, 100, 1000])
    def test_sweep_shaped_call_stays_under_1_6_mib(self, sweep_gram, m):
        # temporaries are bounded by the chunk, not by the kernel: one chunk's
        # masked passes and BTPE set-up, no copies of them
        rows, cols = np.triu_indices(200, k=1)
        probs = sweep_gram.matrix[rows, cols]
        streams = EntryStreams(0, "shots", rows, cols)
        tracemalloc.start()
        try:
            streams.binomial(m, probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2**20, peak


class TestCellFamilies:
    """A sweep cell's one family per role draws every (m, p) point as fresh ones do."""

    POINTS = [(m, p_tilde) for m in (10, 100, 1000) for p_tilde in (0.05, 0.2)]

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_shared_family_matches_fresh_families_and_reference(self, sweep_pool, order):
        ideal = kernels.KernelMatrix(sweep_pool.q_train_ideal, kernels.IDEAL, {"num_qubits": 2})
        fid = sweep_pool.q_cross_ideal
        shots, cross = kernels.shot_streams(0, 200), kernels.cross_streams(0, fid.shape)
        pick = np.random.default_rng(12)  # the entries checked against the reference
        rows, cols = np.triu_indices(200, k=1)
        upper = pick.choice(rows.size, 150, replace=False)
        upper = list(zip(rows[upper].tolist(), cols[upper].tolist()))
        flat = pick.choice(fid.size, 150, replace=False)
        pairs = [divmod(k, fid.shape[1]) for k in flat.tolist()]
        for m, p_tilde in self.POINTS if order == "forward" else self.POINTS[::-1]:
            noise = make_noise(p_tilde)
            noisy = kernels.apply_noise(ideal, noise, fix_diagonal=True)
            w = kernels.sample_shots(noisy, m, shots)
            assert w.params["seed"] == 0
            assert np.array_equal(w.matrix, kernels.sample_shots(noisy, m, 0).matrix)
            want = shot_means_reference(noisy.matrix, m, 0, "shots", upper)
            assert [w.matrix[e] for e in upper] == [want[e] for e in upper]
            c = kernels.sample_cross(fid, noise, 2, m, cross)
            assert np.array_equal(c, kernels.sample_cross(fid, noise, 2, m, 0))
            want = shot_means_reference(noise.depolarize(fid, 2), m, 0, "cross", pairs)
            assert [c[e] for e in pairs] == [want[e] for e in pairs]

    def test_one_round_one_fill_per_role_per_cell(self, monkeypatch):
        # the entries' first Philox block is made once per cell and role, in
        # ceil(k / _CHUNK) calls, whatever the cell's shot counts and rates
        config = sweep_config(shots=[10, 100, 1000, "inf"], noise_rates=[0.0, 0.05])
        philox, first = rng.philox_block, {"shots": 0, "cross": 0}

        def spy(seed, role, i, j, block=1):
            if np.any(np.asarray(block) == 1):
                assert np.ndim(block) == 0
                first[role] += 1
            return philox(seed, role, i, j, block)

        monkeypatch.setattr(rng, "philox_block", spy)
        records = cli._cell_records(config, 200, 0)
        assert all(r.error is None for r in records)
        chunks = -(-200 * 199 // 2 // rng._CHUNK), -(-200 * 100 // rng._CHUNK)
        assert (first["shots"], first["cross"]) == chunks == (5, 5)

    def test_cell_families_are_gone_when_the_cell_returns(self, monkeypatch):
        refs = {}
        for name in ("shot_streams", "cross_streams"):
            def spy(seed, entries, build=getattr(kernels, name)):
                family = build(seed, entries)
                refs.setdefault(family.role, []).append(weakref.ref(family))
                return family

            monkeypatch.setattr(kernels, name, spy)
        config = sweep_config(train_sizes=[8], test_size=4, shots=[10, 100, "inf"])
        records = cli._cell_records(config, 8, 0)
        assert all(r.error is None for r in records)
        assert {role: len(r) for role, r in refs.items()} == {"shots": 1, "cross": 1}
        assert [r() for rs in refs.values() for r in rs] == [None, None]

    def test_a_family_of_other_entries_is_rejected(self):
        probs = np.full((3, 3), 0.5)
        qt = kernels.KernelMatrix(probs, kernels.NOISY_EXPECTATION, {"fix_diagonal": True})
        for family, got in [
            (kernels.shot_streams(0, 3, fixed_diag=False), "6 'shots'"),
            (kernels.shot_streams(0, 2), "1 'shots'"),
            (kernels.cross_streams(0, (1, 3)), "3 'cross'"),
        ]:
            with pytest.raises(ValueError, match=f"need 3 'shots' streams, got {got}"):
                kernels.sample_shots(qt, 10, family)
        with pytest.raises(ValueError, match="need 6 'cross' streams, got 3 'shots'"):
            kernels.sample_cross(probs[:2], None, 2, 10, kernels.shot_streams(0, 3))


class TestShapeCheck:
    """Both samplers reject a wrongly shaped matrix before any draw, at every m."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(rng, "philox_block", forbidden)

    @pytest.mark.parametrize("m", [1, 10, "inf"])
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4,), (2, 2, 2), ()])
    def test_sample_shots_needs_a_square_matrix(self, shape, m):
        qt = kernels.KernelMatrix(np.full(shape, 0.5), kernels.NOISY_EXPECTATION, {})
        message = re.escape(f"sample_shots needs a square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            kernels.sample_shots(qt, m, seed=0)

    @pytest.mark.parametrize("m", [1, 10, "inf"])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3,), ()])
    def test_sample_cross_needs_a_2d_block(self, shape, m):
        message = re.escape(f"sample_cross needs a 2-D matrix, got shape {shape}")
        for noise in (None, make_noise(0.05)):
            with pytest.raises(ValueError, match=message):
                kernels.sample_cross(np.full(shape, 0.5), noise, 2, m, seed=0)


class TestProbabilityCheck:
    """Both samplers reject non-probabilities before any draw."""

    MESSAGE = r"kernel entries must be probabilities in \[0, 1\]"

    @staticmethod
    def noisy(bad):
        probs = np.full((3, 3), 0.5)
        probs[0, 1] = probs[1, 0] = bad
        np.fill_diagonal(probs, 1.0)
        return kernels.KernelMatrix(probs, kernels.NOISY_EXPECTATION, {"fix_diagonal": True})

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    @pytest.mark.parametrize("m", [1, 10, 1000])
    def test_both_samplers_reject(self, bad, m):
        qt = self.noisy(bad)
        with pytest.raises(ValueError, match=self.MESSAGE):
            kernels.sample_shots(qt, m, seed=0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            kernels.sample_cross(qt.matrix[:2], None, 2, m, seed=0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_rejected_at_exact_shots(self, bad):
        qt = self.noisy(bad)
        with pytest.raises(ValueError, match=self.MESSAGE):
            kernels.sample_shots(qt, "inf", seed=0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            kernels.sample_cross(qt.matrix[:2], None, 2, "inf", seed=0)

    def test_nan_passes_exact_shots_to_the_next_stage(self):
        # no draw reads it; the stage that reads the matrix names it
        qt = self.noisy(np.nan)
        assert np.isnan(kernels.sample_shots(qt, "inf", seed=0).matrix[0, 1])
        assert np.isnan(kernels.sample_cross(qt.matrix[:2], None, 2, "inf", seed=0)[0, 1])


class TestGeometricDifference:
    def test_equal_kernels(self):
        rng = np.random.default_rng(18)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(5, 2))).matrix
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        assert kernels.geometric_difference(q, q, y, 1e-8) == pytest.approx(1.0)

    def test_doubling_halves_ratio(self):
        rng = np.random.default_rng(19)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(4, 2))).matrix
        y = np.array([1.0, 1.0, -1.0, -1.0])
        ratio = kernels.geometric_difference(2.0 * q, q, y, 0.0)
        assert ratio == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernels.geometric_difference(np.eye(3), np.eye(2), np.ones(2))


class TestKernelIO:
    def test_round_trip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(20)
        q = kernels.gram_ideal(rng.uniform(-1, 1, size=(4, 2)))
        path = tmp_path / "gram.csv"
        kernels.save_kernel(q, path)
        back = kernels.load_kernel(path)
        assert np.array_equal(back.matrix, q.matrix)
        assert back.provenance == kernels.IDEAL
        assert back.params["num_qubits"] == 2

    def test_a_sidecar_byte_order_mark_is_skipped(self, tmp_path):
        # it failed as "not valid JSON: Unexpected UTF-8 BOM"
        q = kernels.gram_ideal(np.random.default_rng(21).uniform(-1, 1, size=(3, 2)))
        noisy = kernels.KernelMatrix(q.matrix, kernels.NOISY_EXPECTATION, {"num_qubits": 2})
        path = tmp_path / "gram.csv"
        kernels.save_kernel(noisy, path)
        sidecar = tmp_path / "gram.csv.json"
        sidecar.write_bytes(b"\xef\xbb\xbf" + sidecar.read_bytes())
        back = kernels.load_kernel(path)
        assert (back.provenance, back.params) == (kernels.NOISY_EXPECTATION, {"num_qubits": 2})

    @pytest.mark.parametrize("text, key", [
        ('{"provenance": "ideal", "provenance": "shot-sampled", "params": {}}',
         "provenance"),
        ('{"provenance": "ideal", "params": {"num_qubits": 2, "num_qubits": 9}}',
         "num_qubits"),
    ], ids=["top-level", "nested"])
    def test_a_repeated_sidecar_key_names_the_sidecar(self, tmp_path, text, key):
        # the sidecar loaded with the key's last value
        path = tmp_path / "gram.csv"
        kernels.save_kernel(kernels.gram_ideal(np.zeros((2, 2))), path)
        sidecar = tmp_path / "gram.csv.json"
        sidecar.write_text(text)
        with pytest.raises(ValueError) as got:
            kernels.load_kernel(path)
        assert str(got.value) == f"{sidecar}: not valid JSON: repeated key {key!r}"

    @pytest.mark.parametrize("text, problem", [
        ('{"provenance": "ideal", "pbrams": {"num_qubits": 2}}',
         "sidecar keys must be 'provenance' and 'params', got ['pbrams', 'provenance']"),
        ('{"provenance": "ideal"}',
         "sidecar keys must be 'provenance' and 'params', got ['provenance']"),
        ('{}', "sidecar keys must be 'provenance' and 'params', got []"),
        ('{"provenance": null, "params": {}}', "provenance must be a string"),
        ('{"provenance": ["ideal"], "params": {}}', "provenance must be a string"),
    ], ids=["misspelt", "no-params", "empty", "null", "list"])
    def test_a_sidecar_holds_exactly_a_provenance_and_params(self, tmp_path, text, problem):
        # a missing or misspelt params loaded as {}, any provenance as itself
        path = tmp_path / "gram.csv"
        kernels.save_kernel(kernels.gram_ideal(np.zeros((2, 2))), path)
        sidecar = tmp_path / "gram.csv.json"
        sidecar.write_text(text)
        with pytest.raises(ValueError) as got:
            kernels.load_kernel(path)
        assert str(got.value) == f"{sidecar}: {problem}"

    def test_a_kernel_without_a_sidecar_is_ideal(self, tmp_path):
        path = tmp_path / "gram.csv"
        linalg.save_matrix_csv(np.eye(2), path)
        back = kernels.load_kernel(path)
        assert (back.provenance, back.params) == (kernels.IDEAL, {})

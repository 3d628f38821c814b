import tracemalloc

import numpy as np
import pytest

from qksim import kernels, qsim

from oracles import (
    feature_states_reference,
    fidelity_density_trace,
    state_matrix_chain,
)


def encode(x):
    """The encoded state of one feature vector: a one-row batch."""
    return qsim.feature_states(np.asarray(x, dtype=float)[None, :])[0]


def fidelity(x1, x2):
    """Squared overlap of two encoded states: a one-entry cross kernel."""
    return kernels.quantum_cross(np.atleast_2d(x2), np.atleast_2d(x1))[0, 0]


class TestFeatureState:
    def test_zero_angles_single_qubit(self):
        # zero phases make both walls cancel: H H |0> = |0>
        state = encode(np.array([0.0]))
        assert np.allclose(state, [1.0, 0.0], atol=1e-15)

    def test_zero_angles_two_qubits(self):
        state = encode(np.zeros(2))
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.allclose(state, expect, atol=1e-15)

    def test_matches_matrix_chain_oracle(self):
        rng = np.random.default_rng(21)
        for num_qubits in (1, 2, 3):
            for _ in range(25):
                x = rng.uniform(-2.5, 2.5, size=num_qubits)
                got = encode(x)
                want = state_matrix_chain(x)
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_quarter_turn_single_qubit(self):
        got = encode(np.array([np.pi / 4]))
        want = state_matrix_chain(np.array([np.pi / 4]))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_normalized_for_random_inputs(self):
        rng = np.random.default_rng(5)
        for num_qubits in (1, 4, 7):
            x = rng.uniform(-3, 3, size=num_qubits)
            state = encode(x)
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) <= 1e-12

    def test_dimension_limits(self):
        for width in (0, qsim.MAX_QUBITS + 1):
            message = rf"feature width must be in \[1, 14\], got {width}"
            with pytest.raises(ValueError, match=message):
                encode(np.zeros(width))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="feature matrix has non-finite entries"):
            encode(np.array([np.nan, 1.0]))

    def test_a_rows_state_does_not_depend_on_its_batch(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, size=(6, 3))
        batch = qsim.feature_states(x)
        for k, row in enumerate(x):
            assert np.allclose(batch[k], encode(row), atol=1e-14)
            assert np.allclose(batch[k], qsim.feature_states(x[k:])[0], atol=1e-14)


class TestInPlaceEncoder:
    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 12])
    def test_bytes_equal_to_the_reference_encoder(self, num_qubits, n):
        # tobytes() equality: a signed zero or a last-bit difference fails
        rng = np.random.default_rng(num_qubits * 1000 + n)
        x = rng.uniform(-2.5, 2.5, size=(n, num_qubits))
        got = qsim.feature_states(x)
        want = feature_states_reference(x)
        assert got.shape == want.shape == (n, 1 << num_qubits)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
    @pytest.mark.parametrize("num_qubits", [1, 2, 7, 12, 14])
    def test_bytes_equal_across_the_wall_slab_edges(self, num_qubits, n):
        # n = 256 fills a slab of 256 rows exactly, 255 and 257 round it down
        # to 256 and 128 rows; n = 0 and 1 make every qubit of N <= 14 a near one
        rng = np.random.default_rng(num_qubits * 1000 + n)
        x = rng.uniform(-2.5, 2.5, size=(n, num_qubits))
        got = qsim.feature_states(x)
        assert got.tobytes() == feature_states_reference(x).tobytes()

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_bytes_equal_when_one_row_is_wider_than_a_slab(self, num_qubits):
        # two-row slabs: at N=2 bit 0's pairs stream as far pairs, one row each
        n = qsim._SLAB + 1
        x = np.random.default_rng(num_qubits).uniform(-2.5, 2.5, size=(n, num_qubits))
        got = qsim.feature_states(x)
        assert got.tobytes() == feature_states_reference(x).tobytes()

    def test_peak_memory_is_at_most_two_and_a_quarter_outputs(self):
        # phase and psi are one output each; the wall's buffer is half a slab
        x = np.random.default_rng(12).uniform(-2.0, 2.0, size=(300, 12))
        tracemalloc.start()
        try:
            out = qsim.feature_states(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=3)
        assert fidelity(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vectors(self):
        assert fidelity(np.zeros(2), np.zeros(2)) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x1, x2 = rng.uniform(-2, 2, size=(2, 3))
            assert abs(fidelity(x1, x2) - fidelity(x2, x1)) <= 1e-12

    def test_matches_density_trace_oracle(self):
        rng = np.random.default_rng(12)
        for num_qubits in (1, 2, 3):
            for _ in range(15):
                x1, x2 = rng.uniform(-2, 2, size=(2, num_qubits))
                got = fidelity(x1, x2)
                want = fidelity_density_trace(x1, x2)
                assert abs(got - want) <= 1e-10
                assert 0.0 <= got <= 1.0

    def test_gram_entries_are_pair_fidelities(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, size=(5, 3))
        g = kernels.gram_ideal(x).matrix
        for i in range(5):
            for j in range(5):
                want = 1.0 if i == j else fidelity(x[i], x[j])
                assert abs(g[i, j] - want) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="feature width mismatch: train 3, test 2"):
            kernels.quantum_cross(np.zeros((1, 3)), np.zeros((1, 2)))


def pure_state(x):
    """Density matrix of the encoded feature vector ``x``."""
    psi = encode(x)
    return np.outer(psi, psi.conj())


class TestDepolarize:
    def test_p_zero_is_identity_map(self):
        rho = pure_state([0.3, -0.7])
        assert np.allclose(qsim.depolarize(rho, 0.0), rho)

    def test_p_one_is_maximally_mixed(self):
        rho = pure_state([0.3, -0.7])
        assert np.allclose(qsim.depolarize(rho, 1.0), np.eye(4) / 4)

    def test_half_mix_single_qubit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = qsim.depolarize(rho, 0.5)
        assert np.allclose(out, np.diag([0.75, 0.25]))

    def test_output_is_valid_state(self):
        rho = pure_state([1.0, 2.0])
        out = qsim.depolarize(rho, 0.3)
        qsim.check_density_matrix(out)

    def test_rate_out_of_range(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            qsim.depolarize(rho, 1.5)


class TestNoiseFolding:
    def test_zero_rate_exact(self):
        unitaries = qsim.random_unitaries(2, 4, seed=0)
        report = qsim.verify_noise_folding(unitaries, 0.0, seed=0)
        assert report.folded_rate == 0.0
        assert report.max_abs_diff <= 1e-12
        assert report.passed

    def test_single_layer_is_definitionally_equal(self):
        unitaries = qsim.random_unitaries(1, 1, seed=3)
        report = qsim.verify_noise_folding(unitaries, 0.2, seed=3)
        assert report.folded_rate == pytest.approx(0.2)
        assert report.passed

    def test_eight_layers(self):
        unitaries = qsim.random_unitaries(2, 8, seed=7)
        report = qsim.verify_noise_folding(unitaries, 0.001, seed=7)
        assert report.folded_rate == pytest.approx(1.0 - 0.999**8)
        assert report.passed

    def test_full_grid(self):
        # every (layers, rate) cell across 20 seeds
        for layers in (1, 2, 4, 8):
            for rate in (0.0, 0.001, 0.05, 0.3):
                for seed in range(20):
                    unitaries = qsim.random_unitaries(2, layers, seed=seed)
                    report = qsim.verify_noise_folding(unitaries, rate, seed=seed)
                    assert report.passed, (layers, rate, seed, report.max_abs_diff)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            qsim.verify_noise_folding([np.ones((2, 2))], 0.1, seed=0)

    def test_noise_model_and_verifier_share_the_folding_formula(self, monkeypatch):
        # a wrong formula reaches the sweep's rate and fails the verifier
        monkeypatch.setattr(qsim, "folded_rate", lambda rate, layers: rate * layers)
        assert kernels.NoiseModel(0.05, 4).rate == 0.05 * 4
        unitaries = qsim.random_unitaries(2, 4, seed=0)
        report = qsim.verify_noise_folding(unitaries, 0.05, seed=0)
        assert report.folded_rate == 0.05 * 4
        assert report.passed is False

    def test_unitaries_are_unitary(self):
        for u in qsim.random_unitaries(3, 5, seed=11):
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10

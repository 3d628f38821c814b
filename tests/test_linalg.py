import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qksim import linalg

from oracles import fix_column_signs_loop, reconstruct_diag


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return linalg.sym_matrix((a + a.T) / 2)


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        a = np.array([[1.0, 2.0], [99.0, 3.0]])
        s = linalg.sym_matrix(a)
        assert s[1, 0] == s[0, 1] == 2.0


class TestEigSym:
    def test_already_diagonal(self):
        dec = linalg.eig_sym(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [2.0, -1.0])
        assert np.allclose(dec.eigenvectors, np.eye(2))

    def test_identity(self):
        dec = linalg.eig_sym(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_two_by_two_offdiagonal(self):
        # hand-solved characteristic polynomial: lambda^2 - 1 = 0
        dec = linalg.eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(dec.eigenvectors[:, 0], [r, r], atol=1e-12)
        assert np.allclose(dec.eigenvectors[:, 1], [r, -r], atol=1e-12)

    def test_sign_convention_first_nonzero_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dec = linalg.eig_sym(random_symmetric(rng, 5))
            for k in range(5):
                col = dec.eigenvectors[:, k]
                nz = np.nonzero(np.abs(col) > 1e-12)[0]
                assert col[nz[0]] >= 0

    def test_reconstruction_and_orthonormality_random(self):
        # 1000 seeded random symmetric matrices, dims 2..32
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            dim = int(rng.integers(2, 33))
            m = random_symmetric(rng, dim)
            dec = linalg.eig_sym(m)
            v = dec.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(dim))) <= 1e-10
            recon_err = np.linalg.norm(dec.reconstruct() - m, "fro")
            assert recon_err <= 1e-8 * max(1.0, np.linalg.norm(m, "fro"))
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.eig_sym(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_sign_fix_matches_column_loop(self):
        # columns: all zero; lead just under the 1e-12 threshold (skipped)
        # before a negative and before a positive entry; lead at and just
        # over it; signed zeros above a negative entry and alone; only
        # entries under the threshold
        v = np.array([
            [0.0, -0.99e-12, -0.99e-12, -1e-12, -1.01e-12, -0.0, -0.0, -0.5e-12],
            [0.0, -0.5, 0.5, 0.5, 0.5, -0.0, 0.0, 0.5e-12],
            [0.0, 0.25, -0.25, 0.25, 0.25, -0.3, -0.0, -0.5e-12],
        ])
        want = np.array([
            [0.0, 0.99e-12, -0.99e-12, -1e-12, 1.01e-12, 0.0, -0.0, -0.5e-12],
            [0.0, 0.5, 0.5, 0.5, -0.5, 0.0, 0.0, 0.5e-12],
            [0.0, -0.25, -0.25, 0.25, -0.25, 0.3, -0.0, -0.5e-12],
        ])
        rng = np.random.default_rng(11)
        cases = [v] + [
            np.linalg.eigh(random_symmetric(rng, dim))[1] for dim in (1, 2, 9, 40)
        ]
        for case in cases:  # copies: the helper negates in place
            got = linalg._fix_column_signs(case.copy())
            ref = fix_column_signs_loop(case.copy())
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        got = linalg._fix_column_signs(v.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_reconstruct_matches_diag_product(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 9, 40, 120):
            dec = linalg.eig_sym(random_symmetric(rng, dim))
            lam = dec.eigenvalues.copy()
            lam[::3] = 0.0
            for spectrum in (dec.eigenvalues, lam, 1.0 / (np.abs(lam) + 0.5)):
                assert np.array_equal(
                    dec.reconstruct(spectrum),
                    reconstruct_diag(dec.eigenvectors, spectrum),
                )


class TestTemporaries:
    """The helpers make their n x n temporaries in place, and never in a
    caller's array."""

    @staticmethod
    def peak_squares(fn, n):
        """Traced peak of ``fn()``, in units of one n x n float64 matrix."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / (8 * n * n)
        finally:
            tracemalloc.stop()

    def test_peak_memory_at_n_500(self):
        # the out-of-place forms peaked at 3.03, 4.14 and 4.03 matrices
        n = 500
        m = random_symmetric(np.random.default_rng(13), n)
        dec = linalg.eig_sym(m)
        lam = 1.0 / (np.abs(dec.eigenvalues) + 0.5)
        assert self.peak_squares(lambda: linalg.sym_matrix(m), n) <= 2.25
        assert self.peak_squares(lambda: linalg.eig_sym(m), n) <= 2.25
        assert self.peak_squares(lambda: dec.reconstruct(lam), n) <= 3.25

    def test_inputs_are_unchanged(self):
        rng = np.random.default_rng(14)
        for dim in (1, 2, 9, 40):
            a = rng.normal(size=(dim, dim))
            before = a.tobytes()
            linalg.sym_matrix(a)
            assert a.tobytes() == before
            s = linalg.sym_matrix(a)
            before = s.tobytes()
            first = linalg.eig_sym(s)
            assert s.tobytes() == before
            again = linalg.eig_sym(s)
            assert first.eigenvectors.tobytes() == again.eigenvectors.tobytes()


def _references(names, skip=()):
    """``file: function`` for each reference to one of ``names`` in the package."""
    src = Path(__file__).resolve().parents[1] / "src" / "qksim"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in skip:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.Name, ast.alias)):
                name = getattr(node, "id", None) or node.name
            else:
                continue
            if name in names:
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno) if owners else None
                found.append(f"{path.name}: {owner.name if owner else '<module>'}")
    return found


def test_only_linalg_decomposes():
    # every kernel decomposition goes through linalg, which shares results and
    # fixes eigenvector signs; the verifier's density-matrix check is the one
    # other caller, on a complex state that no kernel reads
    found = _references(("eigh", "eigvalsh"), skip=("linalg.py",))
    assert found == ["qsim.py: check_density_matrix"]


def test_public_functions_without_a_caller_in_the_package():
    # a public function that nothing in the package calls is a second path
    # to delete, unless it is kept on purpose for readers outside src/
    src = Path(__file__).resolve().parents[1] / "src" / "qksim"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                called.add((node.value.id, node.attr))  # kernels.gram_ideal
            elif isinstance(node, ast.Name):
                called.add((module, node.id))  # a name in its own module
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                called.update((node.module, alias.name) for alias in node.names)
    assert sorted(f"{m}.{f}" for m, f in defined - called) == [
        "bounds.saturation_diagnostic",  # the paper's saturation diagnostic
        # acceptance criterion 1 names the transforms one by one
        "calibrate.clip",
        "calibrate.flip",
        "calibrate.nearest_psd",
        "calibrate.shift",
        "cli.load_results",  # reads back what emit_results writes
        "kernels.quantum_cross",  # encodes rows outside a pool; bench traces it
        # acceptance criterion 9 builds relabelling's n x n core matrix with it
        "linalg.mat_sqrt_psd",
    ]


def test_no_module_compares_bytes():
    # a repair reuses W's Spectrum by object identity, and the sweep knows
    # from its coordinates where W is Q; no stage compares matrix bytes
    assert _references(("tobytes",)) == []


def test_only_linalg_reads_a_file():
    # linalg.open_text and read_json decode every input file: UTF-8 less a
    # byte-order mark, the path in every decoding error, no repeated JSON key.
    # KernelModel.from_json parses text it is handed; create_text writes.
    assert sorted(_references(("read_text", "read_bytes", "loads", "load"))) == [
        "learner.py: from_json", "linalg.py: read_json",
    ]
    assert sorted(_references(("open",))) == [
        "linalg.py: create_text", "linalg.py: open_text", "linalg.py: read_json",
    ]


def test_only_linalg_writes_a_file():
    # linalg.create_text writes every output file all or nothing; a file
    # written in place is cut short when the write fails
    assert _references(("write_text", "write_bytes")) == []


def test_only_boundary_owners_check_finiteness():
    # a value is checked finite where it enters: a config value or flag, a
    # dataset or matrix file, the features an encoder takes, and a matrix that
    # eig_sym or a Spectrum receives; sym_matrix mirrors products the package
    # computed, so it checks nothing
    assert sorted(_references(("isfinite",))) == [
        "cli.py: _real", "datasets.py: load_csv", "linalg.py: check_symmetric",
        "linalg.py: load_matrix_csv", "qsim.py: feature_states",
    ]


def test_only_linalg_inverts_a_ridge_system():
    # linalg.inv_ridge is the one ridge inverse, and its singular error names
    # the remedy; a second copy elsewhere would drift from it
    src = Path(__file__).resolve().parents[1] / "src" / "qksim"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reconstruct"
                and node.args
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Div)
                and isinstance(node.args[0].left, ast.Constant)
                and node.args[0].left.value == 1.0
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found and all(f.startswith("linalg.py:") for f in found)


class TestMatSqrtPsd:
    def test_identity(self):
        assert np.allclose(linalg.mat_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(linalg.mat_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_psd_squares_back(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(3, 3))
        a = linalg.sym_matrix(b.T @ b)
        s = linalg.mat_sqrt_psd(a)
        assert np.linalg.norm(s @ s - a, "fro") <= 1e-7 * max(1.0, np.linalg.norm(a, "fro"))

    def test_rejects_indefinite(self):
        with pytest.raises(linalg.NotPSDError):
            linalg.mat_sqrt_psd(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-12])
        s = linalg.mat_sqrt_psd(m)
        assert s[1, 1] == 0.0


class TestInvRidge:
    def test_identity_no_ridge(self):
        assert np.allclose(linalg.inv_ridge(np.eye(2), 0.0), np.eye(2))

    def test_diagonal(self):
        out = linalg.inv_ridge(np.diag([2.0, 4.0]), 0.0)
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_ridge_shifts_spectrum(self):
        # 1/(1+1.5) and 1/(-0.5+1.5)
        out = linalg.inv_ridge(np.diag([1.0, -0.5]), 1.5)
        assert np.allclose(out, np.diag([0.4, 1.0]))

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 8)
        ridge = abs(float(np.min(np.linalg.eigvalsh(m)))) + 1.0
        out = linalg.inv_ridge(m, ridge)
        resid = (m + ridge * np.eye(8)) @ out - np.eye(8)
        assert np.max(np.abs(resid)) <= 1e-7

    def test_eigenvalues_commute_with_eigenbasis(self):
        rng = np.random.default_rng(5)
        m = random_symmetric(rng, 6)
        ridge = abs(float(np.min(np.linalg.eigvalsh(m)))) + 0.5
        lam = np.linalg.eigvalsh(m)
        lam_inv = np.sort(1.0 / (lam + ridge))
        got = np.sort(np.linalg.eigvalsh(linalg.inv_ridge(m, ridge)))
        assert np.max(np.abs(got - lam_inv)) <= 1e-9

    def test_singular_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inv_ridge(np.diag([1.0, 0.0]), 0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            linalg.inv_ridge(np.eye(2), -0.1)


def failure(func, *args):
    """The exception type and text ``func`` raises on ``args``."""
    with pytest.raises(Exception) as info:
        func(*args)
    return type(info.value), str(info.value)


BAD_MATRICES = [
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, 0.5], [0.1, 1.0]]),
]


class TestSpectrum:
    """A Spectrum argument gives the bits and the failures of the matrix."""

    def test_spectrum_arguments_give_the_same_bits(self):
        rng = np.random.default_rng(41)
        b = rng.normal(size=(7, 7))
        psd = linalg.sym_matrix(b.T @ b / 7)
        m = random_symmetric(rng, 7)
        for ridge in (0.0, 3.5):
            want = linalg.inv_ridge(psd, ridge).tobytes()
            assert linalg.inv_ridge(linalg.Spectrum(psd), ridge).tobytes() == want
        want = linalg.mat_sqrt_psd(psd).tobytes()
        assert linalg.mat_sqrt_psd(linalg.Spectrum(psd)).tobytes() == want
        spec = linalg.Spectrum(m)
        assert spec.eigenvalues.tobytes() == np.linalg.eigvalsh(m).tobytes()
        dec = linalg.eig_sym(m)
        assert spec.decomposition.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
        assert spec.decomposition.eigenvectors.tobytes() == dec.eigenvectors.tobytes()
        assert linalg.spectral_norm(spec) == linalg.spectral_norm(m)

    @pytest.mark.parametrize("bad", BAD_MATRICES)
    def test_spectrum_arguments_fail_as_the_matrix(self, bad):
        want = failure(linalg.eig_sym, bad)
        assert failure(linalg.inv_ridge, bad, 1.0) == want
        assert failure(linalg.mat_sqrt_psd, bad) == want
        assert failure(lambda: linalg.inv_ridge(linalg.Spectrum(bad), 1.0)) == want
        assert failure(lambda: linalg.mat_sqrt_psd(linalg.Spectrum(bad))) == want

    def test_spectrum_passes_a_spectrum_through_and_wraps_anything_else(self):
        m = np.array([[2.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
        held = linalg.Spectrum(m, "kernel")
        assert linalg.spectrum(held) is held
        fresh = linalg.spectrum(m)
        assert fresh is not held and fresh.matrix.tobytes() == m.tobytes()
        with pytest.raises(ValueError, match="^kernel must be square"):
            linalg.spectrum(np.eye(2).reshape(1, 4), "kernel")

    @staticmethod
    def count_checks(monkeypatch):
        calls, check = [], linalg.check_symmetric

        def spy(m, name="matrix"):
            calls.append(name)
            return check(m, name)

        monkeypatch.setattr(linalg, "check_symmetric", spy)
        return calls

    def test_eig_sym_trusts_a_spectrum_check_and_gives_the_same_bits(self, monkeypatch):
        m = random_symmetric(np.random.default_rng(43), 9)
        spec = linalg.Spectrum(m, "kernel")
        calls = self.count_checks(monkeypatch)
        dec = linalg.eig_sym(spec)
        assert calls == []
        want = linalg.eig_sym(spec.matrix)
        assert calls == ["matrix"]
        assert dec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert dec.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert spec.decomposition.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert calls == ["matrix"]

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "^matrix has non-finite entries$"),
        (np.eye(2).reshape(1, 4), r"^matrix must be square, got shape \(1, 4\)$"),
        (np.array([[1.0, 0.5], [0.1, 1.0]]), "^matrix is not symmetric$"),
    ], ids=["non-finite", "non-square", "asymmetric"])
    def test_eig_sym_still_checks_an_array(self, monkeypatch, bad, message):
        calls = self.count_checks(monkeypatch)
        with pytest.raises(ValueError, match=message):
            linalg.eig_sym(bad)
        assert calls == ["matrix"]


class TestNorms:
    def test_diag_example(self):
        m = np.diag([3.0, -4.0])
        assert linalg.spectral_norm(m) == pytest.approx(4.0)
        assert linalg.frobenius_norm(m) == pytest.approx(5.0)

    def test_zero(self):
        z = np.zeros((3, 3))
        assert linalg.spectral_norm(z) == 0.0
        assert linalg.frobenius_norm(z) == 0.0

    def test_identity(self):
        for n in (1, 4, 9):
            assert linalg.spectral_norm(np.eye(n)) == pytest.approx(1.0)
            assert linalg.frobenius_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_norm_sandwich(self):
        # spectral <= frobenius <= sqrt(dim) * spectral
        rng = np.random.default_rng(17)
        for _ in range(200):
            dim = int(rng.integers(1, 16))
            m = random_symmetric(rng, dim)
            s = linalg.spectral_norm(m)
            f = linalg.frobenius_norm(m)
            assert s <= f + 1e-12
            assert f <= np.sqrt(dim) * s + 1e-12


class TestInversePerturbation:
    def test_equal_matrices(self):
        report = linalg.inverse_perturbation_check(np.eye(3), np.eye(3))
        assert report.applicable
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.passed

    def test_hand_example(self):
        # lhs = 1 - 1/1.1, rhs = 0.1 / 0.9
        report = linalg.inverse_perturbation_check(np.eye(2), np.diag([1.1, 1.0]))
        assert report.applicable
        assert report.lhs == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)
        assert report.rhs == pytest.approx(0.1 / 0.9, abs=1e-12)
        assert report.passed

    def test_random_pairs_never_violate(self):
        # 1000 seeded (A, A + E) pairs with small E: the inequality is a
        # theorem, so every applicable pair must pass
        rng = np.random.default_rng(99)
        applicable = 0
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            base = random_symmetric(rng, dim) + np.eye(dim) * (dim + 1)
            pert = random_symmetric(rng, dim) * 0.05
            report = linalg.inverse_perturbation_check(base, base + pert)
            assert report.passed
            applicable += report.applicable
        assert applicable > 900

    def test_inapplicable_when_perturbation_large(self):
        report = linalg.inverse_perturbation_check(np.eye(2), np.diag([5.0, 1.0]))
        assert not report.applicable
        assert report.passed

    def test_singular_input_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse_perturbation_check(np.diag([1.0, 0.0]), np.eye(2))

    def test_checks_each_input_once(self, monkeypatch):
        # A and B once each, then the inverse whose spectral norm the bound reads;
        # eig_sym trusts the two Spectra and gets their checked arrays
        check_symmetric, eigh = linalg.check_symmetric, np.linalg.eigh
        checked, decomposed = [], []

        def spy_check(m, name="matrix"):
            checked.append(name)
            return check_symmetric(m, name)

        def spy_eigh(a, *args, **kwargs):
            decomposed.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "check_symmetric", spy_check)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = a + np.diag([0.01, -0.02])
        report = linalg.inverse_perturbation_check(a, b)
        assert report.applicable and report.passed
        assert checked == ["A", "B", "matrix"]
        assert [m.tobytes() for m in decomposed] == [a.tobytes(), b.tobytes()]

    @pytest.mark.parametrize("a, b, message", [
        (np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), "A is not symmetric"),
        (np.eye(2), np.diag([1.0, np.nan]), "B has non-finite entries"),
        (np.eye(2), np.eye(3), r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
    ])
    def test_input_errors_name_the_matrix(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            linalg.inverse_perturbation_check(a, b)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_symmetric(rng, 5)
        path = tmp_path / "m.csv"
        linalg.save_matrix_csv(m, path)
        back = linalg.load_matrix_csv(path)
        assert np.array_equal(m, back)

    def test_ragged_rows_name_the_file_and_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n\n4,5,6\n7,8\n")
        message = r"m\.csv: row 3 has 2 entries, row 1 has 3$"
        with pytest.raises(ValueError, match=message):
            linalg.load_matrix_csv(path)

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,0.5\n0.5,1\n")
        assert np.array_equal(linalg.load_matrix_csv(path), [[1.0, 0.5], [0.5, 1.0]])


class TestCreateText:
    def test_a_failed_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="stop"):
            with linalg.create_text(path) as fh:
                fh.write("new\n")
                raise RuntimeError("stop")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("target, errno", [("missing/f.txt", 2), ("dir", 21)])
    def test_an_error_names_the_target_not_the_temporary_file(
        self, tmp_path, monkeypatch, target, errno
    ):
        # a missing directory fails the open, a directory at the target the rename
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError) as info:
            with linalg.create_text(target) as fh:
                fh.write("new\n")
        assert (info.value.errno, info.value.filename) == (errno, target)
        assert str(info.value).endswith(f": {target!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_a_failed_sidecar_keeps_the_old_matrix_and_is_named(self, tmp_path, monkeypatch):
        # the sidecar's error passes through the matrix's writer unrenamed
        monkeypatch.chdir(tmp_path)
        linalg.save_matrix_csv(np.eye(2), "m.csv")
        old = Path("m.csv").read_bytes()
        Path("m.csv.json").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            linalg.save_matrix_csv(2 * np.eye(2), "m.csv", {"provenance": "ideal"})
        assert info.value.filename == "m.csv.json"
        assert Path("m.csv").read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.csv.json"]

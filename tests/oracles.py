"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against the *definitions* rather
than the library's fast paths: explicit Kronecker products, dense matrix
chains, two-pass statistics.  Keep these slow and obvious.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from qksim import bounds, calibrate, cli, datasets, kernels, learner, linalg, qsim, rng

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0]])
    for m in mats:
        out = np.kron(out, m)
    return out


def z_on_qubit(j: int, num_qubits: int) -> np.ndarray:
    """Pauli Z acting on qubit j (qubit 0 = leftmost Kronecker factor)."""
    return kron_chain(
        [Z2 if k == j else np.eye(2) for k in range(num_qubits)]
    )


def phase_layer_matrix(x: np.ndarray) -> np.ndarray:
    """Diagonal phase unitary exp(i (sum_j x_j Z_j + sum_{j<j'} x_j x_j' Z_j Z_j'))."""
    x = np.asarray(x, dtype=float)
    num_qubits = x.shape[0]
    dim = 2**num_qubits
    ham = np.zeros((dim, dim))
    for j in range(num_qubits):
        ham += x[j] * z_on_qubit(j, num_qubits)
    for j in range(num_qubits):
        for jp in range(j + 1, num_qubits):
            ham += x[j] * x[jp] * z_on_qubit(j, num_qubits) @ z_on_qubit(
                jp, num_qubits
            )
    # ham is diagonal by construction
    return np.diag(np.exp(1j * np.diag(ham)))


def state_matrix_chain(x: np.ndarray) -> np.ndarray:
    """Encoded state via the explicit dense unitary product."""
    x = np.asarray(x, dtype=float)
    num_qubits = x.shape[0]
    hadamard_wall = kron_chain([H2] * num_qubits)
    phases = phase_layer_matrix(x)
    e0 = np.zeros(2**num_qubits, dtype=complex)
    e0[0] = 1.0
    return phases @ hadamard_wall @ phases @ hadamard_wall @ e0


def density_matrix_chain(x: np.ndarray) -> np.ndarray:
    psi = state_matrix_chain(x)
    return np.outer(psi, psi.conj())


def fidelity_density_trace(x1: np.ndarray, x2: np.ndarray) -> float:
    """Tr(rho1 rho2) from the dense density matrices."""
    rho1 = density_matrix_chain(x1)
    rho2 = density_matrix_chain(x2)
    return float(np.trace(rho1 @ rho2).real)


def gram_density_trace(x_rows: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    rhos = [density_matrix_chain(row) for row in x]
    n = len(rhos)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            g[i, j] = float(np.trace(rhos[i] @ rhos[j]).real)
    return g


def feature_states_reference(x_rows: np.ndarray) -> np.ndarray:
    """Batch encoder that builds a fresh array for every step.

    Each Hadamard layer moves its qubit axis to the front, stacks the sum
    and the difference of the two halves, and moves the axis back.  The
    in-place ``qsim.feature_states`` must match it bit for bit.
    """
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    n, num_qubits = x.shape
    dim = 1 << num_qubits
    z = qsim.spin_table(num_qubits).astype(float)
    s = z @ x.T
    theta = s + 0.5 * (s**2 - np.sum(x**2, axis=1)[None, :])
    phase = np.exp(1j * theta)
    psi = np.full((dim, n), 2.0 ** (-num_qubits / 2.0), dtype=complex)
    psi = psi * phase
    a = psi.reshape((2,) * num_qubits + (n,))
    for axis in range(num_qubits):
        a = np.moveaxis(a, axis, 0)
        a = np.stack((a[0] + a[1], a[0] - a[1]), axis=0)
        a = np.moveaxis(a, 0, axis)
    psi = a.reshape(dim, n) * 2.0 ** (-num_qubits / 2.0)
    psi = psi * phase
    return psi.T


def gram_ideal_formula(x_rows: np.ndarray) -> np.ndarray:
    """``kernels.gram_ideal``'s matrix as one expression per step, each a new
    array: ``clip((|o|**2 + (|o|**2).T) / 2, 0, 1)`` with a unit diagonal, ``o``
    the overlaps of the encoded states.  The in-place version must match it bit
    for bit."""
    states = qsim.feature_states(np.atleast_2d(np.asarray(x_rows, dtype=float)))
    g = np.abs(states @ states.conj().T) ** 2
    g = np.clip((g + g.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(g, 1.0)
    return g


def step50_product_loop(a, s, low, d, live) -> np.ndarray:
    """BTPE Step 50's ``F`` by one pass per term index: sorted longest first,
    the live entries that still have a term ``t`` are a prefix, whose ``F`` is
    multiplied (``d > 0``) or divided (``d < 0``) by ``a / (low + t) - s`` in
    place; 1 elsewhere.  ``rng._product``'s segmented fold must match it bit
    for bit."""
    keep, k = np.flatnonzero(live), np.where(live, -np.abs(d), 0.0)
    order = keep.take(np.argsort(k.take(keep)))
    k, a, s, low, up = (v.take(order) for v in (k, a, s, low, d > 0.0))
    f, term, down = np.ones(k.size), np.empty(k.size), ~up
    for t in range(1, int(-k[:1].sum()) + 1):
        end = np.searchsorted(k, -t, side="right")  # the entries with |d| >= t
        fe, te = f[:end], term[:end]
        np.add(low[:end], t, out=te)
        np.divide(a[:end], te, out=te)
        np.subtract(te, s[:end], out=te)
        np.multiply(fe, te, out=fe, where=up[:end])
        np.divide(fe, te, out=fe, where=down[:end])
    out = np.ones(d.size)
    out[order] = f
    return out


def shot_means_reference(probs: np.ndarray, m: int, seed: int, role: str, entries):
    """Per-entry loop: the mean of ``m`` draws from a fresh ``(seed, role, i, j)``
    stream at each listed ``(i, j)``; unlisted entries stay NaN.  The array
    sampler behind ``kernels.sample_shots`` and ``sample_cross`` must match it
    bit for bit."""
    out = np.full(probs.shape, np.nan)
    for i, j in entries:
        out[i, j] = rng.stream(seed, role, i, j).binomial(m, probs[i, j]) / m
    return out


def two_pass_variance(x_rows: np.ndarray) -> float:
    """Population variance of all coordinates, computed in two passes."""
    flat = np.asarray(x_rows, dtype=float).ravel()
    mean = float(np.sum(flat)) / flat.size
    return float(np.sum((flat - mean) ** 2)) / flat.size


def covariance_eigensolve(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance spectrum, assembled entry by entry."""
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    n, d = x.shape
    mu = x.sum(axis=0) / n
    cov = np.zeros((d, d))
    for row in x:
        c = row - mu
        cov += np.outer(c, c)
    cov /= n - 1
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def primal_ridge_norm_sq(phi: np.ndarray, y: np.ndarray, ridge: float) -> float:
    """||w*||^2 for min_w ridge ||w||^2 + ||phi w - y||^2 in explicit features."""
    d = phi.shape[1]
    w = np.linalg.solve(phi.T @ phi + ridge * np.eye(d), phi.T @ y)
    return float(w @ w)


def real_embedding(rho: np.ndarray) -> np.ndarray:
    """Real feature vector with <emb(a), emb(b)> = Tr(a b) for Hermitian a, b."""
    return np.concatenate([rho.real.ravel(), rho.imag.ravel()])


def fix_column_signs_loop(v: np.ndarray) -> np.ndarray:
    """Flip each column whose first entry above 1e-12 in magnitude is negative."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, k] = -col
    return v


def reconstruct_diag(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``V diag(lam) V'`` through an explicit diagonal matrix."""
    return linalg.sym_matrix(v @ np.diag(lam) @ v.T)


def grid_search_rbf_reference(x_train, y_train, x_val, y_val):
    """The RBF grid search with one fit_krr -> predict -> accuracy per ridge,
    so each ridge decomposes the gamma's kernel afresh."""
    xtr = np.atleast_2d(np.asarray(x_train, dtype=float))
    xva = np.atleast_2d(np.asarray(x_val, dtype=float))
    scale = 1.0 / (xtr.shape[1] * learner.pooled_variance(xtr))
    best = None
    for gmul in learner.GAMMA_GRID:
        gamma = gmul * scale
        k_train = kernels.rbf_gram(xtr, gamma)
        k_val = kernels.rbf_cross(xtr, xva, gamma)
        for lam in learner.LAMBDA_GRID:
            model = learner.fit_krr(k_train, y_train, lam)
            _, labels = learner.predict(model, k_val)
            acc = learner.accuracy(labels, y_val)
            if (
                best is None
                or acc > best.accuracy
                or (acc == best.accuracy and lam < best.ridge)
                or (acc == best.accuracy and lam == best.ridge and gamma < best.gamma)
            ):
                best = learner.GridSearchResult(gamma=gamma, ridge=lam, accuracy=acc)
    return best


def pool_labels_reference(config, n, seed):
    """A cell's engineered labels and geometric difference from bare pool
    matrices, so that relabelling and the ratio each check and decompose the
    quantum kernel Q and the classical kernel K afresh."""
    feats = cli._load_pool_features(config, n + config.test_size, seed)
    var = learner.pooled_variance(feats)
    gamma = config.relabel_gamma_scale / (feats.shape[1] * var)
    q = kernels.gram_ideal(feats).matrix
    k = kernels.rbf_gram(feats, gamma).matrix
    labels = datasets.relabel_for_advantage(q, k, ridge=config.ridge)
    geo = kernels.geometric_difference(k, q, labels.astype(float), config.ridge)
    return labels, geo


def with_cross_fidelity(pool):
    """A sweep cell's pool whose ideal cross block is encoded afresh from the
    train and test rows by an exact ``kernels.quantum_cross``, instead of
    sliced from the pool Gram matrix."""
    x_train, x_test = pool.features[pool.train_idx], pool.features[pool.test_idx]
    fid = kernels.quantum_cross(x_train, x_test, None, "inf")
    return dataclasses.replace(pool, q_cross_ideal=fid)


def sweep_quantum_record(config, pool, n, m, p_tilde, method, seed):
    """One quantum sweep record with nothing shared between records.

    Composes the public pipeline functions for this record alone, in the
    order its fields fill: calibration, train accuracy, cross kernel, test
    accuracy, c1, bound terms.  A failing step leaves the earlier fields set
    and the error text in ``error``.
    """
    rec = cli.ResultRecord(
        kind=cli.QUANTUM,
        n=n,
        n_test=config.test_size,
        m="inf" if m == kernels.INF_SHOTS else int(m),
        p_tilde=p_tilde,
        method=method,
        seed=seed,
        ridge=config.ridge,
        geometric_difference=pool.geometric_difference,
    )
    try:
        noise = kernels.NoiseModel(
            rate_per_layer=p_tilde, layers=config.layers, mixing=config.mixing
        )
        q_ideal = kernels.KernelMatrix(
            matrix=pool.q_train_ideal,
            provenance=kernels.IDEAL,
            params={"num_qubits": config.num_qubits},
        )
        noisy = kernels.apply_noise(q_ideal, noise, fix_diagonal=True)
        sampled = kernels.sample_shots(noisy, m, seed)
        repaired, report = calibrate.calibrate_and_report(
            pool.q_train_ideal, sampled.matrix, method, delta=config.nearest_delta
        )
        calibrated = repaired.matrix  # an array: the fit decomposes it afresh
        rec.dist_before = report.dist_before
        rec.dist_after = report.dist_after
        rec.min_eig_before = report.min_eig_before
        rec.min_eig_after = report.min_eig_after
        rec.passed_lemma = report.passed_lemma
        y_train = pool.labels[pool.train_idx].astype(float)
        model = learner.fit_krr(calibrated, y_train, config.ridge)
        _, train_pred = learner.predict(model, calibrated)
        rec.train_accuracy = learner.accuracy(train_pred, y_train.astype(int))
        cross_m = kernels.INF_SHOTS if config.cross_shots == "exact" else m
        cross = kernels.quantum_cross(
            pool.features[pool.train_idx],
            pool.features[pool.test_idx],
            noise,
            cross_m,
            seed,
        )
        _, test_pred = learner.predict(model, cross)
        rec.test_accuracy = learner.accuracy(test_pred, pool.labels[pool.test_idx])
        rec.c1 = learner.model_complexity_c1(pool.q_train_ideal, y_train, config.ridge)
        bound = bounds.theorem1_bound(
            pool.q_train_ideal + config.ridge * np.eye(n),
            y_train,
            m,
            noise,
            config.num_qubits,
            config.bound_delta,
        )
        rec.p = bound.p
        rec.c_q = bound.c_q
        rec.c2 = bound.c2
        rec.term_ideal = bound.term_ideal
        rec.term_noise = bound.term_noise
        rec.breakdown_p = bound.breakdown_p
    except Exception as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _clip_reference(w):
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= 0.0:  # already PSD: exact fixed point
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.clip(dec.eigenvalues, 0.0, None))


def _flip_reference(w):
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= 0.0:
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.abs(dec.eigenvalues))


def _shift_reference(w):
    a = linalg.check_symmetric(w)
    lam_min = float(np.min(np.linalg.eigvalsh(a)))
    offset = abs(min(lam_min, 0.0))
    return a + offset * np.eye(a.shape[0])


def _nearest_psd_reference(w, delta=0.0):
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= delta:
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.maximum(dec.eigenvalues, delta))


def _apply_method_reference(w, method, delta=0.0):
    a = linalg.check_symmetric(w)
    if method == calibrate.CLIP:
        return _clip_reference(a)
    if method == calibrate.FLIP:
        return _flip_reference(a)
    if method == calibrate.SHIFT:
        return _shift_reference(a)
    if method == calibrate.NEAREST:
        return _nearest_psd_reference(a, delta)
    if method == calibrate.NONE:
        return a.copy()
    raise ValueError(f"unknown calibration method: {method!r}")


# the public repairs as they were before they shared one decomposition
REPAIR_REFERENCES = {
    calibrate.CLIP: _clip_reference,
    calibrate.FLIP: _flip_reference,
    calibrate.SHIFT: _shift_reference,
    calibrate.NEAREST: _nearest_psd_reference,
}


def calibrate_and_report_reference(q, w, method, delta=0.0):
    """``calibrate_and_report`` with every repair and report decomposing its
    input afresh: each transform runs its own ``eig_sym`` or ``eigvalsh``,
    and the report its own ``eigvalsh`` of W, of the repair and of Q."""
    qm = linalg.check_symmetric(q, "reference")
    wm = linalg.check_symmetric(w, "kernel")
    if qm.shape != wm.shape:
        raise ValueError(f"shape mismatch: {qm.shape} vs {wm.shape}")
    repaired = _apply_method_reference(wm, method, delta)

    dist_before = float(np.linalg.norm(qm - wm, "fro"))
    dist_after = float(np.linalg.norm(qm - repaired, "fro"))
    min_before = float(np.min(np.linalg.eigvalsh(wm)))
    min_after = float(np.min(np.linalg.eigvalsh(repaired)))

    passed = None
    if method in (calibrate.CLIP, calibrate.FLIP, calibrate.SHIFT):
        q_lam = np.linalg.eigvalsh(qm)
        applicable = float(np.min(q_lam)) >= -1e-9 * max(1.0, float(np.max(q_lam)))
        if method == calibrate.SHIFT:
            applicable = applicable and abs(float(np.trace(wm)) - wm.shape[0]) <= 1e-6
        if applicable:
            passed = dist_after <= dist_before * (1.0 + 1e-9)
    return repaired, calibrate.CalibrationReport(
        method=method,
        dist_before=dist_before,
        dist_after=dist_after,
        min_eig_before=min_before,
        min_eig_after=min_after,
        passed_lemma=passed,
    )


_REPAIR = calibrate.repair  # kept: tests monkeypatch calibrate.repair to the oracle


def repair_refit_reference(w, method, delta=0.0):
    """``calibrate.repair`` as it was before a repaired Spectrum carried W's
    eigenbasis: below the method's floor the repair is a fresh Spectrum of a
    copy of its matrix, so the fit decomposes the repaired matrix again."""
    ws = linalg.spectrum(w)
    out = _REPAIR(ws, method, delta)
    return out if out is ws else linalg.Spectrum(out.matrix.copy())


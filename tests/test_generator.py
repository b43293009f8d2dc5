import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langscape import generator as gen
from langscape import landscape as ls

from oracles import fd_gradient, wdc_deviation_svd

SEED = 31415


def test_forward_hand_set_weights():
    # one layer: x = sqrt(2) relu(W x); W = [[1, -1], [0, 2]], z = (1, 1)
    W = np.array([[1.0, -1.0], [0.0, 2.0]])
    G = gen.ReluGenerator(dims=(2, 2), weights=(W,))
    out, masks = gen.forward(G, np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([0.0, 2.0 * math.sqrt(2.0)]))
    assert np.array_equal(masks[0], np.array([False, True]))


def test_build_generator_weight_scale():
    G = gen.build_generator([16, 4096, 512], seed=SEED)
    assert G.depth == 2
    assert G.latent_dim == 16 and G.output_dim == 512
    for W, n_out in zip(G.weights, (4096, 512)):
        # entries are N(0, 1/n_out): sample std close to 1/sqrt(n_out)
        assert W.std() == pytest.approx(1.0 / math.sqrt(n_out), rel=0.05)


def test_forward_positive_homogeneity():
    # exact in floating point when the factor is a power of two
    G = gen.build_generator([5, 40, 80], seed=SEED + 1)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        z = rng.standard_normal(5)
        a, _ = gen.forward(G, z)
        b, _ = gen.forward(G, 4.0 * z)
        assert np.array_equal(b, 4.0 * a)


def test_forward_batched_matches_loop():
    G = gen.build_generator([3, 24, 48], seed=SEED + 3)
    rng = np.random.default_rng(SEED + 4)
    Z = rng.standard_normal((7, 3))
    batch, _ = gen.forward(G, Z)
    for i in range(7):
        single, _ = gen.forward(G, Z[i])
        # batched and single paths hit different BLAS kernels; equality
        # holds numerically, not bitwise
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-14)


def test_forward_norm_concentration():
    # sqrt(2) relu scaling keeps norms near the latent norm on average
    rng = np.random.default_rng(SEED + 5)
    ratios = []
    for k in range(40):
        G = gen.build_generator([8, 256, 512], seed=SEED + 10 + k)
        z = rng.standard_normal(8)
        out, _ = gen.forward(G, z)
        ratios.append(np.linalg.norm(out) / np.linalg.norm(z))
    assert 0.9 < float(np.median(ratios)) < 1.1


def test_split_forward_composes():
    G = gen.build_generator([4, 16, 32, 64], seed=SEED + 6)
    rng = np.random.default_rng(SEED + 7)
    for layer in (1, 2):
        G1, G2 = gen.split_forward(G, layer)
        z = rng.standard_normal(4)
        direct, _ = gen.forward(G, z)
        w, _ = gen.forward(G1, z)
        composed, _ = gen.forward(G2, w)
        assert np.array_equal(direct, composed)
    with pytest.raises(ValueError):
        gen.split_forward(G, 0)
    with pytest.raises(ValueError):
        gen.split_forward(G, 3)


def test_empirical_loss_grad_matches_fd():
    dims = [4, 32, 64]
    G = gen.build_generator(dims, seed=SEED + 8)
    rng = np.random.default_rng(SEED + 9)
    z_true = rng.standard_normal(4)
    y = gen.forward(G, z_true)[0]
    mask = np.zeros(64, dtype=bool)
    mask[rng.choice(64, size=9, replace=False)] = True
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=64), y=y,
        mask=mask)
    for _ in range(10):
        z = rng.standard_normal(4)
        val, grad = gen.empirical_loss_grad(problem, z)
        fd = fd_gradient(lambda p: gen.empirical_loss_grad(problem, p)[0], z,
                         h=1e-7)
        # relu kinks make isolated coordinates non-smooth; compare softly
        assert np.linalg.norm(fd - grad) < 1e-4 * max(1.0, np.linalg.norm(grad))
        # value is the masked squared residual
        res = (gen.forward(G, z)[0] - y)[mask]
        assert val == pytest.approx(0.5 * float(res @ res), rel=1e-12)


def test_empirical_loss_grad_with_dense_map():
    dims = [3, 12, 24]
    G = gen.build_generator(dims, seed=SEED + 10)
    A = gen.gaussian_map(10, 24, seed=SEED + 11)
    rng = np.random.default_rng(SEED + 12)
    z_true = rng.standard_normal(3)
    y = A.apply(gen.forward(G, z_true)[0])
    problem = gen.InverseProblem(generator=G, map=A, y=y)
    val, grad = gen.empirical_loss_grad(problem, z_true)
    assert val == pytest.approx(0.0, abs=1e-24)
    assert np.linalg.norm(grad) < 1e-12
    z = rng.standard_normal(3)
    fd = fd_gradient(lambda p: gen.empirical_loss_grad(problem, p)[0], z,
                     h=1e-7)
    _, grad = gen.empirical_loss_grad(problem, z)
    assert np.linalg.norm(fd - grad) < 1e-5 * max(1.0, np.linalg.norm(grad))
    # no generator is the identity: ||A w - y||^2 / 2 and A^T (A w - y)
    w = rng.standard_normal((5, 24))
    linear = gen.InverseProblem(generator=None, map=A, y=y)
    val, grad = gen.empirical_loss_grad(linear, w)
    res = w @ A.matrix.T - y
    assert val.shape == (5,)
    assert np.allclose(val, 0.5 * np.sum(res * res, axis=-1), rtol=1e-13)
    assert np.allclose(grad, res @ A.matrix, rtol=1e-12, atol=1e-13)
    for i in range(3):
        fd = fd_gradient(lambda p: gen.empirical_loss_grad(linear, p)[0],
                         w[i], h=1e-6)
        assert np.linalg.norm(fd - grad[i]) \
            < 1e-6 * max(1.0, np.linalg.norm(grad[i]))


# ---------------------------------------------------------------------------
# concentration reports


def test_wdc_deviation_shrinks_with_rows():
    rng = np.random.default_rng(SEED + 13)
    k = 3
    medians = []
    for n in (128, 512, 2048):
        devs = []
        for _ in range(60):
            W = rng.standard_normal((n, k)) / math.sqrt(n)
            devs.append(gen.wdc_deviation(W, rng.standard_normal(k),
                                          rng.standard_normal(k)))
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_wdc_report_fields_and_angle():
    # a pair at angle pi/4, against the closed-form swap isometry
    rng = np.random.default_rng(SEED + 14)
    W = rng.standard_normal((512, 4)) / math.sqrt(512.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    dev = gen.wdc_deviation(W, x, y)
    assert dev >= 0.0
    assert dev == pytest.approx(wdc_deviation_svd(W, x, y), rel=1e-10)


def test_wdc_deviation_matches_svd_oracle():
    # the spectral norm is exact, not an iterate: random pairs at small k
    # and moderate n, where power iteration stopped ~1e-3 short
    rng = np.random.default_rng(SEED + 28)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(64, 1025))
        W = rng.standard_normal((n, k)) / math.sqrt(n)
        x, y = rng.standard_normal(k), rng.standard_normal(k)
        assert gen.wdc_deviation(W, x, y) == pytest.approx(
            wdc_deviation_svd(W, x, y), rel=1e-10)


def test_wdc_parallel_inputs():
    rng = np.random.default_rng(SEED + 15)
    W = rng.standard_normal((1024, 3)) / math.sqrt(1024.0)
    x = np.array([0.0, 2.0, 0.0])
    dev = gen.wdc_deviation(W, x, 3.0 * x)
    assert dev < 0.15    # expectation is x xhat^T at angle zero


def test_wdc_expectation_oracle_parallel_case():
    # at angle 0 the population matrix is (1/2) xhat xhat^T; check the
    # empirical mean of masked row outer products against it directly
    rng = np.random.default_rng(SEED + 16)
    n, k = 200_000, 3
    W = rng.standard_normal((n, k)) / math.sqrt(n)
    x = np.array([1.0, 0.0, 0.0])
    pre = W @ x
    active = pre > 0
    emp = (W[active].T @ W[active])
    # for coinciding directions the population matrix is (1/2) I: half the
    # rows are active and they are isotropic apart from a rank-one tilt
    # that vanishes at angle zero
    assert np.max(np.abs(emp - 0.5 * np.eye(k))) < 0.01


def test_rric_deviation_orthonormal_map_is_tiny():
    G = gen.build_generator([4, 16, 32], seed=SEED + 17)
    Q, _ = np.linalg.qr(np.random.default_rng(SEED + 18)
                        .standard_normal((32, 32)))
    A = gen.MeasurementMap(matrix=Q.T, m=32)
    rng = np.random.default_rng(SEED + 19)
    xs = rng.standard_normal((4, 4))
    assert gen.rric_deviation(A, G, *xs) < 1e-12


def test_rric_deviation_shrinks_with_measurements():
    G = gen.build_generator([6, 48, 96], seed=SEED + 20)
    rng = np.random.default_rng(SEED + 21)
    medians = []
    for m in (12, 48, 192):
        devs = []
        for _ in range(60):
            A = gen.gaussian_map(m, 96, seed=int(rng.integers(2**63)))
            devs.append(gen.rric_deviation(A, G, *rng.standard_normal((4, 6))))
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_gradient_proximity_decreases_with_expansion():
    rng = np.random.default_rng(SEED + 22)
    z_star = rng.standard_normal(4)
    z_star /= np.linalg.norm(z_star)
    medians = []
    for expansion in (4, 16):
        dims = [4, 4 * expansion, 4 * expansion * expansion]
        G = gen.build_generator(dims, seed=SEED + 23)
        ratios = gen.gradient_proximity(G, z_star, sample_count=100,
                                        seed=SEED + 24)
        assert ratios.shape == (100,) and np.all(ratios >= 0.0)
        medians.append(float(np.median(ratios)))
    assert medians[1] < medians[0]


def test_measurement_map_identity_and_transpose():
    A = gen.MeasurementMap(matrix=None, m=5)
    v = np.arange(5.0)
    assert np.array_equal(A.apply(v), v)
    assert np.array_equal(A.apply_transpose(v), v)
    M = np.random.default_rng(SEED + 27).standard_normal((3, 5))
    B = gen.MeasurementMap(matrix=M, m=3)
    assert np.allclose(B.apply(v), M @ v)
    assert np.allclose(B.apply_transpose(np.ones(3)), M.T @ np.ones(3))
    # a latent of another dim must not broadcast against an identity map
    problem = gen.InverseProblem(generator=None, map=A, y=np.ones(5))
    for z in (np.zeros(1), np.zeros((4, 3)), np.zeros((5, 4))):
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 5\)"):
            A.apply(z)
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 5\)"):
            gen.empirical_loss_grad(problem, z)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 128),
       rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_measurement_map_rows_keep_their_bytes(m, n, rows, seed):
    # each row of a batch is bit for bit the one-row call, and a single
    # row is the plain product x @ A.T (v @ A)
    rng = np.random.default_rng(seed)
    A = gen.MeasurementMap(matrix=rng.standard_normal((m, n)), m=m)
    X = rng.standard_normal((rows, n))
    V = rng.standard_normal((rows, m))
    AX, ATV = A.apply(X), A.apply_transpose(V)
    assert AX.shape == (rows, m) and ATV.shape == (rows, n)
    for i in range(rows):
        one = A.apply(X[i]).tobytes()
        assert one == AX[i].tobytes() == (X[i] @ A.matrix.T).tobytes()
        one = A.apply_transpose(V[i]).tobytes()
        assert one == ATV[i].tobytes() == (V[i] @ A.matrix).tobytes()


def test_invalid_generator_dims():
    with pytest.raises(ValueError):
        gen.build_generator([5], seed=0)
    with pytest.raises(ValueError):
        gen.build_generator([0, 4], seed=0)

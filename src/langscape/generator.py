"""Random expansive ReLU generators and measurement maps.

Finite-width counterparts of the closed-form landscape: generators
G(z) = relu(sqrt(2) W_d ... relu(sqrt(2) W_1 z)) with layer i entries
N(0, 1/n_i) (so a layer preserves expected squared norm), compressive
measurements y = A G(z*), the empirical loss ||A G(z) - y||^2 / 2 with
exact subgradient backprop through the activation pattern, and the two
concentration quantities the theory rests on: the weight distribution
deviation of a single layer (WDC) and the range-restricted isometry
deviation of A (RRIC).

Everything is immutable after construction and uses explicit seeds; the
Monte-Carlo helpers are deterministic functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReluGenerator",
    "MeasurementMap",
    "gaussian_map",
    "InverseProblem",
    "build_generator",
    "forward",
    "split_forward",
    "empirical_loss_grad",
    "wdc_deviation",
    "rric_deviation",
    "gradient_proximity",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ReluGenerator:
    """Feed-forward ReLU generator; weights are read-only after init.

    dims = (n_0, ..., n_d); weights[i] has shape (n_{i+1} given 0-based i)
    x (n_i); each layer computes relu(sqrt(2) W x).
    """

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2 or any(n <= 0 for n in dims):
            raise ValueError(f"dims must be >= 2 positive integers, got {dims}")
        if len(self.weights) != len(dims) - 1:
            raise ValueError(
                f"expected {len(dims) - 1} weight matrices, got {len(self.weights)}"
            )
        ws = []
        for i, w in enumerate(self.weights):
            w = np.asarray(w, dtype=float)
            if w.shape != (dims[i + 1], dims[i]):
                raise ValueError(
                    f"layer {i + 1} has shape {w.shape}, expected "
                    f"{(dims[i + 1], dims[i])}"
                )
            if not np.all(np.isfinite(w)):
                raise ValueError(f"layer {i + 1} contains non-finite entries")
            w = w.copy()
            w.flags.writeable = False
            ws.append(w)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def latent_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]


@dataclass(frozen=True)
class MeasurementMap:
    """Linear measurement A: R^{n_d} -> R^m; matrix None means identity.

    apply and apply_transpose take each row of a batch as a (1, n)
    product, bit for bit the 1-D product of that row alone (a batched
    x @ A.T is not).
    """

    matrix: np.ndarray | None
    m: int

    def __post_init__(self):
        if self.matrix is not None:
            a = np.asarray(self.matrix, dtype=float)
            if a.ndim != 2 or a.shape[0] != self.m:
                raise ValueError(
                    f"matrix shape {a.shape} inconsistent with m={self.m}"
                )
            if not np.all(np.isfinite(a)):
                raise ValueError("measurement matrix has non-finite rows")
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, "matrix", a)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return x
        return (x[..., None, :] @ self.matrix.T)[..., 0, :]

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return v
        return (v[..., None, :] @ self.matrix)[..., 0, :]


def gaussian_map(m: int, n: int, seed: int) -> MeasurementMap:
    """A with i.i.d. N(0, 1/m) entries, the standard RRIC ensemble."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / math.sqrt(m)
    return MeasurementMap(matrix=a, m=m)


@dataclass(frozen=True)
class InverseProblem:
    """Measurements of a generator output: y = A G(z*) (+ noise).

    mask, when given, selects which measurement coordinates are observed
    (inpainting); unobserved residual entries are dropped from the loss.
    generator None is the identity, so y = A w* for a latent w in the
    map's input space (posterior sampling with a linear tail); otherwise
    its output dim must be the map's input dim.
    """

    generator: ReluGenerator | None
    map: MeasurementMap
    y: np.ndarray
    noise_sigma: float = 0.0
    mask: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.map.m,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.map.m},)")
        object.__setattr__(self, "y", y)
        n = self.map.m if self.map.matrix is None else self.map.matrix.shape[1]
        if self.generator is not None and self.generator.output_dim != n:
            raise ValueError(f"generator output dim differs from the "
                             f"measurement map's input dim {n}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.mask is not None:
            mk = np.asarray(self.mask, dtype=bool)
            if mk.shape != (self.map.m,):
                raise ValueError("mask length must equal measurement count")
            object.__setattr__(self, "mask", mk)


# ---------------------------------------------------------------------------
# construction and forward pass


def build_generator(dims, seed: int) -> ReluGenerator:
    """Sample a generator with layer i entries i.i.d. N(0, 1/n_i).

    The row variance 1/n_i makes each layer's masked Gram sum concentrate
    around Q_{x,y} and, with the sqrt(2) forward multiplier, preserves
    E||relu(layer(x))||^2 = ||x||^2.  Deterministic for a fixed seed.
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n <= 0 for n in dims):
        raise ValueError(f"dims must be >= 2 positive integers, got {dims}")
    rng = np.random.default_rng(seed)
    weights = tuple(
        rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i + 1])
        for i in range(len(dims) - 1)
    )
    return ReluGenerator(dims=dims, weights=weights)


def forward(G: ReluGenerator, z):
    """Evaluate G and record the activation pattern.

    z may be a single latent (n_0,) or a batch (..., n_0).  Returns
    (output, masks) with masks[i] the boolean preactivation-positive
    pattern of layer i+1; exactly-zero preactivations count as inactive.
    """
    x = np.asarray(z, dtype=float)
    if x.shape[-1] != G.latent_dim:
        raise ValueError(
            f"latent has dimension {x.shape[-1]}, generator expects {G.latent_dim}"
        )
    masks = []
    for w in G.weights:
        pre = x @ w.T
        m = pre > 0.0
        masks.append(m)
        x = _SQRT2 * np.where(m, pre, 0.0)
    return x, masks


def split_forward(G: ReluGenerator, split_layer: int):
    """Split G = G2 o G1 at a layer boundary; returns (G1, G2).

    split_layer counts completed layers in G1 and must lie in [1, d-1],
    so both halves are nonempty.
    """
    d = G.depth
    if not 1 <= split_layer <= d - 1:
        raise ValueError(f"split_layer must be in [1, {d - 1}], got {split_layer}")
    return (
        ReluGenerator(dims=G.dims[: split_layer + 1],
                      weights=G.weights[: split_layer]),
        ReluGenerator(dims=G.dims[split_layer:],
                      weights=G.weights[split_layer:]),
    )


def _backprop(G: ReluGenerator, masks, v):
    """Pull a cotangent at the output back to the latent input."""
    for w, m in zip(reversed(G.weights), reversed(masks)):
        v = _SQRT2 * (np.where(m, v, 0.0) @ w)
    return v


def empirical_loss_grad(problem: InverseProblem, z):
    """Loss ||A G(z) - y||^2 / 2 (masked coordinates dropped) and its
    gradient via activation-pattern backprop.

    generator None is the identity: the loss is ||A z - y||^2 / 2 with
    gradient A^T (A z - y), and z must be a float array.  The gradient is
    exact wherever no preactivation is zero; at a kink the inactive-side
    subgradient is returned.  The loss has the leading shape of z (shape
    () for one latent).
    """
    G = problem.generator
    out, masks = (z, None) if G is None else forward(G, z)
    residual = problem.map.apply(out) - problem.y
    if problem.mask is not None:
        residual = np.where(problem.mask, residual, 0.0)
    loss = 0.5 * np.sum(residual * residual, axis=-1)
    v = problem.map.apply_transpose(residual)
    return loss, v if G is None else _backprop(G, masks, v)


# ---------------------------------------------------------------------------
# concentration diagnostics


def wdc_deviation(W, x, y) -> float:
    """Deviation || sum_{w_i x>0, w_i y>0} w_i w_i^T - Q_{x,y} ||_2.

    Q_{x,y} = ((pi - theta0)/(2 pi)) I + (sin(theta0)/(2 pi)) M where
    theta0 is the angle between x and y and M is the isometry swapping
    xhat and yhat (zero on their orthocomplement).  The difference is
    symmetric, so its spectral norm is its largest |eigenvalue|.
    """
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if W.ndim != 2 or x.shape != (W.shape[1],) or y.shape != (W.shape[1],):
        raise ValueError("W must be (n, k) with x, y of length k")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("wdc_deviation requires nonzero x and y")
    k = W.shape[1]
    xh, yh = x / nx, y / ny
    cos0 = float(np.clip(xh @ yh, -1.0, 1.0))
    theta0 = math.acos(cos0)
    sin0 = math.sin(theta0)

    # M swaps xhat and yhat: in the plane basis (e1, e2) with e1 = xhat it
    # is [[cos, sin], [sin, -cos]]; for parallel vectors it degenerates to
    # +/- xhat xhat^T
    if sin0 > 1e-12:
        e1 = xh
        e2 = (yh - cos0 * xh) / sin0
        M = (cos0 * (np.outer(e1, e1) - np.outer(e2, e2))
             + sin0 * (np.outer(e1, e2) + np.outer(e2, e1)))
    else:
        M = np.outer(xh, xh) * (1.0 if cos0 > 0 else -1.0)
    Q = ((math.pi - theta0) / (2.0 * math.pi)) * np.eye(k) \
        + (sin0 / (2.0 * math.pi)) * M

    both = (W @ xh > 0.0) & (W @ yh > 0.0)
    Wb = W[both]
    R = Wb.T @ Wb - Q
    return float(np.max(np.abs(np.linalg.eigvalsh(R))))


def rric_deviation(A: MeasurementMap, G: ReluGenerator, x1, x2, x3, x4) -> float:
    """Range-restricted isometry deviation of A on a pair of differences.

    |<A d12, A d34> - <d12, d34>| / (||d12|| ||d34||) with
    dij = G(xi) - G(xj); zero differences are degenerate inputs.
    """
    d12 = forward(G, x1)[0] - forward(G, x2)[0]
    d34 = forward(G, x3)[0] - forward(G, x4)[0]
    n12 = float(np.linalg.norm(d12))
    n34 = float(np.linalg.norm(d34))
    if n12 == 0.0 or n34 == 0.0:
        raise ValueError("degenerate input: zero range difference")
    inner_measured = float(A.apply(d12) @ A.apply(d34))
    inner_true = float(d12 @ d34)
    return abs(inner_measured - inner_true) / (n12 * n34)


def gradient_proximity(G: ReluGenerator, z_star, sample_count: int,
                       seed: int) -> np.ndarray:
    """Measured gap between the empirical and idealized latent gradients.

    Draws sample_count latents z uniform in direction with radius uniform
    on [0.25, 2] ||z*||, and returns for each the ratio
    ||grad Ltilde(z) - grad L(z)|| / ((||z|| + 1) ||z*||), where Ltilde
    is the fully observed loss with y = G(z*) and grad L is the idealized
    landscape gradient rescaled to ambient loss units (||z*||^2 factor).
    """
    from .landscape import ideal_gradient

    z_star = np.asarray(z_star, dtype=float)
    s = float(np.linalg.norm(z_star))
    if s == 0.0:
        raise ValueError("z_star must be nonzero")
    problem = InverseProblem(
        generator=G, map=MeasurementMap(matrix=None, m=G.output_dim),
        y=forward(G, z_star)[0])

    rng = np.random.default_rng(seed)
    n0 = G.latent_dim
    dirs = rng.standard_normal((sample_count, n0))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = s * rng.uniform(0.25, 2.0, size=sample_count)
    Z = dirs * radii[:, None]

    _, g_emp = empirical_loss_grad(problem, Z)
    g_ideal = (s * s) * ideal_gradient(Z, z_star, G.depth)
    return np.linalg.norm(g_emp - g_ideal, axis=1) \
        / ((np.linalg.norm(Z, axis=1) + 1.0) * s)

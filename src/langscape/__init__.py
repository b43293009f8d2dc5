"""Inversion landscapes of random expansive ReLU generators.

Subpackages: closed-form polar landscape (`landscape`), finite random
generators and concentration checks (`generator`), Gaussian mixture priors
(`priors`), Langevin / gradient samplers (`samplers`), transport distances
and chain diagnostics (`diagnostics`), experiment harness and CLI
(`harness`).  Every landscape, prior and generator oracle takes a batch
(..., n); one point (n,) is a batch of one, whose scalar outputs have
shape ().
"""

__version__ = "0.1.0"

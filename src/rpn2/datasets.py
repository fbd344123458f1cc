"""Synthetic dataset generators, deterministic per seed."""

import numpy as np

from .numeric_core import Prng


def two_moons(n=200, noise=0.1, seed=0):
    """Two interleaving half circles; returns (x: n x 2, labels: n)."""
    prng = Prng(seed).derive("two_moons")
    n_top = n // 2
    n_bot = n - n_top
    t_top = prng.uniforms(n_top) * np.pi
    t_bot = prng.uniforms(n_bot) * np.pi
    top = np.stack([np.cos(t_top), np.sin(t_top)], axis=1)
    bot = np.stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)], axis=1)
    x = np.concatenate([top, bot], axis=0)
    x = x + noise * prng.normals(x.shape)
    y = np.concatenate([np.zeros(n_top, dtype=int), np.ones(n_bot, dtype=int)])
    return x, y


def chain_series(m=32, b=16, seed=0):
    """b random walks of length m; returns (x: b x m, targets: b x m next steps)."""
    prng = Prng(seed).derive("chain_series")
    steps = prng.normals((b, m + 1))
    walks = np.cumsum(steps, axis=1)
    return walks[:, :m], walks[:, 1:]


def grid_images(h=8, w=8, d=3, b=4, seed=0):
    """b random images on an h x w x d grid, flattened row-major."""
    prng = Prng(seed).derive("grid_images")
    return prng.normals((b, h * w * d))


def random_graph(n_v=10, edge_prob=0.3, feature_dim=4, classes=2, seed=0):
    """Erdos-Renyi undirected graph with node features and labels.

    Returns (edges, x: n_v x feature_dim, labels: n_v).
    """
    if classes < 1:
        raise ValueError("classes must be >= 1, got %d" % classes)
    prng = Prng(seed).derive("random_graph")
    # one draw per pair i < j in row-major order
    iu, ju = np.triu_indices(n_v, 1)
    keep = prng.uniforms(iu.size) < edge_prob
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    x = prng.normals((n_v, feature_dim))
    labels = np.array([prng.randint(classes) for _ in range(n_v)], dtype=int)
    return edges, x, labels

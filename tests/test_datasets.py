import numpy as np
import pytest

from rpn2 import datasets as ds
from rpn2.numeric_core import Prng


# Oracles: the generators as scalar draw loops. Block draws must reproduce
# them byte for byte, including every draw made after the block.


def _two_moons_oracle(n, noise, seed):
    prng = Prng(seed).derive("two_moons")
    n_top = n // 2
    n_bot = n - n_top
    t_top = np.array([prng.uniform() for _ in range(n_top)]) * np.pi
    t_bot = np.array([prng.uniform() for _ in range(n_bot)]) * np.pi
    top = np.stack([np.cos(t_top), np.sin(t_top)], axis=1)
    bot = np.stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)], axis=1)
    x = np.concatenate([top, bot], axis=0)
    x = x + noise * np.array([prng.normal() for _ in range(x.size)]).reshape(x.shape)
    y = np.concatenate([np.zeros(n_top, dtype=int), np.ones(n_bot, dtype=int)])
    return x, y


def _random_graph_oracle(n_v, edge_prob, feature_dim, classes, seed):
    prng = Prng(seed).derive("random_graph")
    edges = []
    for i in range(n_v):
        for j in range(i + 1, n_v):
            if prng.uniform() < edge_prob:
                edges.append((i, j))
    x = np.array([prng.normal() for _ in range(n_v * feature_dim)]).reshape(
        (n_v, feature_dim))
    labels = np.array([prng.randint(classes) for _ in range(n_v)], dtype=int)
    return edges, x, labels


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200, 1001])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 3])
def test_two_moons_matches_scalar_loop(n, seed):
    x, y = ds.two_moons(n, 0.1, seed)
    want_x, want_y = _two_moons_oracle(n, 0.1, seed)
    assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
    assert np.array_equal(y, want_y)


@pytest.mark.parametrize("n_v", [0, 1, 2, 10, 37])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 3])
def test_random_graph_matches_scalar_loop(n_v, seed):
    edges, x, labels = ds.random_graph(n_v, 0.3, 4, 3, seed)
    want_edges, want_x, want_labels = _random_graph_oracle(n_v, 0.3, 4, 3, seed)
    assert edges == want_edges
    assert all(type(i) is int and type(j) is int for i, j in edges)
    assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
    assert np.array_equal(labels, want_labels)

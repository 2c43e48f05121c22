"""Shared test helpers."""

import pytest


def _split_by_layer(net, grad):
    """``grad``, laid out as ``net.params``, as per-layer (dW, db) views."""
    out, start = [], 0
    for layer in net.layers:
        stop = start + layer.w.shape[-2] * layer.w.shape[-1]
        out.append((grad[..., start:stop].reshape(layer.w.shape),
                    grad[..., stop:stop + layer.b.shape[-1]]))
        start = stop + layer.b.shape[-1]
    return out


@pytest.fixture
def layer_grads():
    """``layer_grads(net, grad)``: a flat parameter gradient split into
    per-layer (dW, db) views, by the net's layout."""
    return _split_by_layer

"""Versioned binary container for trained model weights.

Layout (all integers little-endian):

    bytes 0-7   magic  b"MGCNMODL"
    bytes 8-11  uint32 format version (currently 1)
    bytes 12-19 uint64 header length in bytes
    header      UTF-8 JSON: {"config": <run-config echo>,
                             "layers": [{"role", "activation",
                                         "shape": [in, out]}, ...]}
    payload     per layer, row-major float64 little-endian weights

The mixed matrix is not stored; it is rebuilt from the dataset and the
recipe echoed in the header.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import Model

__all__ = ["save_model", "load_model", "ModelFileError"]

MAGIC = b"MGCNMODL"
VERSION = 1
_PREFIX = struct.Struct("<8sIQ")  # magic, version, header length


class ModelFileError(RuntimeError):
    pass


def save_model(model: Model, path, config_echo: dict) -> None:
    last = len(model.weights) - 1
    header = {
        "config": config_echo,
        "layers": [
            {
                "role": "gcn" if k < model.config.h1 else "mlp",
                "activation": "softmax" if k == last else "relu",
                "shape": list(W.shape),
            }
            for k, W in enumerate(model.weights)
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(blob)))
        fh.write(blob)
        for W in model.weights:
            fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())


def load_model(path):
    """Read a container; returns (header dict, list of weight arrays).

    Raises ModelFileError for any container that does not match the
    layout above exactly.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ModelFileError(f"{path}: not a model container")
    if len(blob) < _PREFIX.size:
        raise ModelFileError(f"{path}: truncated fixed header")
    _, version, hlen = _PREFIX.unpack_from(blob)
    if version != VERSION:
        raise ModelFileError(f"{path}: unsupported version {version}")
    offset = _PREFIX.size + hlen
    if len(blob) < offset:
        raise ModelFileError(f"{path}: header shorter than its declared {hlen} bytes")
    try:
        header = json.loads(blob[_PREFIX.size:offset].decode("utf-8"))
        shapes = [tuple(spec["shape"]) for spec in header["layers"]]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ModelFileError(f"{path}: malformed header: {exc}") from exc
    weights = []
    for shape in shapes:
        if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
            raise ModelFileError(f"{path}: bad layer shape {list(shape)}")
        count = shape[0] * shape[1]
        if len(blob) < offset + 8 * count:
            raise ModelFileError(f"{path}: truncated weight payload")
        weights.append(np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=offset).reshape(shape).copy())
        offset += 8 * count
    if len(blob) != offset:
        raise ModelFileError(f"{path}: trailing bytes after payload")
    return header, weights

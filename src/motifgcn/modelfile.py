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


class ModelFileError(RuntimeError):
    pass


def save_model(model: Model, path, config_echo: dict | None = None) -> None:
    last = len(model.weights) - 1
    header = {
        "config": config_echo or {},
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
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for W in model.weights:
            fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())


def load_model(path):
    """Read a container; returns (header dict, list of weight arrays)."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ModelFileError(f"{path}: not a model container")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != VERSION:
            raise ModelFileError(f"{path}: unsupported version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        weights = []
        for spec in header["layers"]:
            rows, cols = spec["shape"]
            raw = fh.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise ModelFileError(f"{path}: truncated weight payload")
            weights.append(np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy())
        if fh.read(1):
            raise ModelFileError(f"{path}: trailing bytes after payload")
    return header, weights

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifgcn.model import ModelConfig, build_model
from motifgcn.modelfile import ModelFileError, load_model, save_model
from motifgcn.verify import random_graph

PREFIX = 20  # magic, version, header length


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(container bytes, weights) of a small saved model."""
    g = random_graph(np.random.default_rng(0), 8, 0.4, feature_dim=3, n_classes=2)
    model = build_model(ModelConfig(h1=1, h2=1, hidden_dim=2), g)
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, path, config_echo={"recipe": "edge:1"})
    return path.read_bytes(), model.weights


def load_bytes(tmp_path, blob):
    path = tmp_path / "fuzzed.bin"
    path.write_bytes(blob)
    return load_model(path)


def with_header(blob, header: bytes) -> bytes:
    """The container with its header replaced, payload kept."""
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    return blob[:12] + struct.pack("<Q", len(header)) + header + blob[PREFIX + hlen:]


def header_of(blob) -> dict:
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[PREFIX:PREFIX + hlen])


def test_round_trip_is_bit_exact(tmp_path, saved):
    blob, weights = saved
    header, loaded = load_bytes(tmp_path, blob)
    assert header["config"] == {"recipe": "edge:1"}
    assert [w.tobytes() for w in loaded] == [w.tobytes() for w in weights]


def test_truncation_at_every_offset(tmp_path, saved):
    blob, _ = saved
    for cut in range(len(blob)):
        with pytest.raises(ModelFileError):
            load_bytes(tmp_path, blob[:cut])


def test_trailing_bytes(tmp_path, saved):
    blob, _ = saved
    for extra in (b"\0", b"\0" * 8, b"garbage"):
        with pytest.raises(ModelFileError, match="trailing"):
            load_bytes(tmp_path, blob + extra)


def test_bad_magic_and_version(tmp_path, saved):
    blob, _ = saved
    with pytest.raises(ModelFileError, match="not a model container"):
        load_bytes(tmp_path, b"XGCNMODL" + blob[8:])
    for version in (0, 2, 2**32 - 1):
        with pytest.raises(ModelFileError, match="version"):
            load_bytes(tmp_path, blob[:8] + struct.pack("<I", version) + blob[12:])


def test_declared_header_length_past_end(tmp_path, saved):
    blob, _ = saved
    for hlen in (len(blob), 2**64 - 1):
        with pytest.raises(ModelFileError, match="header"):
            load_bytes(tmp_path, blob[:12] + struct.pack("<Q", hlen) + blob[PREFIX:])


@pytest.mark.parametrize("header", [
    b"not json", b"\xff\xfe", b"[1, 2]", b"null", b'{"config": {}}',
    b'{"layers": 5}', b'{"layers": [[3, 2]]}', b"[" * 100000,
], ids=["text", "not-utf8", "list", "null", "no-layers", "layers-int",
        "layer-list", "deep-nesting"])
def test_malformed_header(tmp_path, saved, header):
    blob, _ = saved
    with pytest.raises(ModelFileError):
        load_bytes(tmp_path, with_header(blob, header))


@pytest.mark.parametrize("shapes, match", [
    ([[3, 2], [2, 3]], "truncated"),     # payload too short for the shapes
    ([[3, 2], [2, 1]], "trailing"),      # payload longer than the shapes
    ([[6], [2, 2]], "shape"),
    ([[3, 2, 1], [2, 2]], "shape"),
    ([[-3, 2], [2, 2]], "shape"),
    ([[3.0, 2], [2, 2]], "shape"),
    ([[3, True], [2, 2]], "shape"),
    ([[3, 2]], "trailing"),
])
def test_header_shapes_disagree_with_payload(tmp_path, saved, shapes, match):
    blob, _ = saved
    header = header_of(blob)
    assert [layer["shape"] for layer in header["layers"]] == [[3, 2], [2, 2]]
    header["layers"] = [{"shape": s} for s in shapes]
    with pytest.raises(ModelFileError, match=match):
        load_bytes(tmp_path, with_header(blob, json.dumps(header).encode()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupted_container_loads_or_raises_model_file_error(tmp_path_factory, saved, data):
    blob, _ = saved
    corrupt = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        corrupt[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(bytes(corrupt))
    try:
        load_model(path)
    except ModelFileError:
        pass

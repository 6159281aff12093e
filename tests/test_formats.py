"""Property tests of the two binary formats, DWTP (datasets) and DWNN
(networks): bit-identical round trips, and hostile input (truncation or a
single changed byte) that fails only with the format's own error."""

import io
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepwarp.dataset import (DatasetFormatError, RECORD_DOUBLES, RecordSet,
                              read_dataset, write_dataset)
from deepwarp.net import (Activation, FeatureScaler, MlpNetwork, MlpSpec, MlpWeights,
                          NetworkFormatError, load_network, save_network)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

any_double = st.floats(width=64, allow_nan=True, allow_infinity=True)
finite_double = st.floats(width=64, allow_nan=False, allow_infinity=False)
positive_double = st.floats(width=64, min_value=0.0, exclude_min=True, allow_infinity=False)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def record_sets(draw):
    n = draw(st.integers(0, 12))
    return RecordSet(draw(arrays(np.float64, (n, 7), elements=finite_double)),
                     draw(arrays(np.float64, (n, 3), elements=finite_double)))


@st.composite
def networks(draw, values=finite_double, stds=positive_double):
    """Networks whose weights, biases and scaler means are drawn from
    ``values`` and whose scaler standard deviations from ``stds``."""
    hidden = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    spec = MlpSpec((7, *hidden, 3), activation=draw(st.sampled_from(list(Activation))))
    sizes = spec.layer_sizes
    weights = [draw(arrays(np.float64, (b, a), elements=values))
               for a, b in zip(sizes, sizes[1:])]
    biases = [draw(arrays(np.float64, (b,), elements=values)) for b in sizes[1:]]
    scaler = FeatureScaler(mean=draw(arrays(np.float64, (7,), elements=values)),
                           std=draw(arrays(np.float64, (7,), elements=stds)))
    return MlpNetwork(spec=spec, weights=MlpWeights(weights, biases), scaler=scaler)


def dataset_bytes(records) -> bytes:
    buf = io.BytesIO()
    write_dataset(buf, records)
    return buf.getvalue()


def network_bytes(network) -> bytes:
    buf = io.BytesIO()
    save_network(buf, network)
    return buf.getvalue()


def corrupt(data, raw: bytes) -> bytes:
    """``raw`` with one byte replaced by a different value."""
    out = bytearray(raw)
    pos = data.draw(st.integers(0, len(raw) - 1))
    out[pos] ^= data.draw(st.integers(1, 255))
    return bytes(out)


class TestDwtp:
    @PROPERTY
    @given(record_sets())
    def test_round_trip_bit_identical(self, records):
        again = read_dataset(io.BytesIO(dataset_bytes(records)))
        assert same_bits(again.features, records.features)
        assert same_bits(again.targets, records.targets)

    @PROPERTY
    @given(record_sets(), st.data())
    def test_truncation_rejected(self, records, data):
        raw = dataset_bytes(records)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(DatasetFormatError):
            read_dataset(io.BytesIO(raw[:cut]))

    @PROPERTY
    @given(record_sets(), st.data())
    def test_corruption_rejected_or_read(self, records, data):
        # a changed payload byte can still spell a finite double, so the
        # property is: the format error or a well-formed record set
        raw = corrupt(data, dataset_bytes(records))
        try:
            again = read_dataset(io.BytesIO(raw))
        except DatasetFormatError:
            return
        assert again.features.shape[1:] == (7,) and again.targets.shape[1:] == (3,)
        assert len(again.features) == len(again.targets) <= len(records)
        assert np.all(np.isfinite(again.features)) and np.all(np.isfinite(again.targets))

    @pytest.mark.parametrize("kind", ["bytes", "file"])
    def test_huge_record_count_rejected(self, kind, tmp_path):
        raw = b"DWTP" + struct.pack("<IQ", 1, 2**64 - 1) + b"\x00" * 240
        path = tmp_path / "hostile.dwtp"
        path.write_bytes(raw)
        with open(path, "rb") as f:
            stream = io.BytesIO(raw) if kind == "bytes" else f
            tracemalloc.start()
            try:
                with pytest.raises(DatasetFormatError, match="truncated"):
                    read_dataset(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # an in-memory stream hands back only what it holds; a file read may
        # reserve one batch (65536 records), never the declared count
        batch = 65536 * 8 * RECORD_DOUBLES
        assert peak < (1 << 20 if kind == "bytes" else batch + (1 << 20))


class TestDwnn:
    @PROPERTY
    @given(networks())
    def test_round_trip_bit_identical(self, network):
        again = load_network(io.BytesIO(network_bytes(network)))
        assert again.spec == network.spec
        pairs = [*zip(again.weights.weights, network.weights.weights),
                 *zip(again.weights.biases, network.weights.biases),
                 (again.scaler.mean, network.scaler.mean),
                 (again.scaler.std, network.scaler.std)]
        assert all(same_bits(a, b) for a, b in pairs)

    @PROPERTY
    @given(networks(values=any_double, stds=any_double))
    def test_bad_values_rejected(self, network):
        """A weight, bias or scaler mean that is not finite, or a scaler
        standard deviation that is not finite and positive, is rejected."""
        values = np.concatenate([a.ravel() for a in network.weights.weights
                                 + network.weights.biases + [network.scaler.mean]])
        std = network.scaler.std
        bad = not (np.all(np.isfinite(values)) and np.all(np.isfinite(std) & (std > 0.0)))
        raw = network_bytes(network)
        if bad:
            with pytest.raises(NetworkFormatError):
                load_network(io.BytesIO(raw))
        else:
            load_network(io.BytesIO(raw))

    @PROPERTY
    @given(networks(), st.data())
    def test_truncation_rejected(self, network, data):
        raw = network_bytes(network)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(NetworkFormatError):
            load_network(io.BytesIO(raw[:cut]))

    @PROPERTY
    @given(networks(), st.data())
    def test_corruption_rejected_or_read(self, network, data):
        raw = corrupt(data, network_bytes(network))
        try:
            again = load_network(io.BytesIO(raw))
        except NetworkFormatError:
            return
        sizes = again.spec.layer_sizes
        assert [W.shape for W in again.weights.weights] == list(zip(sizes[1:], sizes))

    def test_reference_fixture_resaves_byte_identical(self):
        raw = (Path(__file__).resolve().parents[1] / "bench" / "fixtures"
               / "reference.dwnn").read_bytes()
        assert len(raw) == 3848
        assert network_bytes(load_network(io.BytesIO(raw))) == raw

    def test_no_layers_rejected(self):
        # a well-formed file apart from its layer count of zero
        raw = network_bytes(MlpNetwork(spec=MlpSpec((7, 2, 3)),
                                       weights=MlpWeights([np.zeros((2, 7)), np.zeros((3, 2))],
                                                          [np.zeros(2), np.zeros(3)]),
                                       scaler=FeatureScaler(np.zeros(7), np.ones(7))))
        head = struct.calcsize("<II")
        layers = sum(head + 8 * (b * a + b) for a, b in ((7, 2), (2, 3)))
        raw = raw[:4] + struct.pack("<II", 1, 0) + raw[4 + head + layers:]
        with pytest.raises(NetworkFormatError, match="no layers"):
            load_network(io.BytesIO(raw))

import io

import numpy as np
import pytest

from deepwarp.features import FEATURE_ORDER
from deepwarp.net import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Activation, AdamConfig,
                          AdamState, FeatureScaler, MlpNetwork, MlpSpec, MlpWeights,
                          NetworkFormatError, TrainingDivergedError, adam_step,
                          backward, forward, forward_batch, init_weights, load_network,
                          save_network, train)

import reference_paths


class TestSpec:
    def test_shape_invariants(self):
        with pytest.raises(ValueError):
            MlpSpec((7, 3))               # no hidden layer
        with pytest.raises(ValueError):
            MlpSpec((6, 16, 3))           # wrong input width
        with pytest.raises(ValueError):
            MlpSpec((7, 16, 4))           # wrong output width

    def test_parameter_count_two_by_sixteen(self):
        assert MlpSpec((7, 16, 16, 3)).n_params == 451

    def test_stvk_depth_variant(self):
        assert MlpSpec((7, 16, 16, 16, 3)).n_params == 451 + 16 * 16 + 16


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_weights(MlpSpec((7, 16, 16, 3)), seed=11)
        b = init_weights(MlpSpec((7, 16, 16, 3)), seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        w = init_weights(MlpSpec((7, 16, 16, 3)), seed=0)
        assert all(np.abs(b).max() == 0.0 for b in w.biases)

    def test_uniform_variance(self):
        # a wide layer gives a decent sample of the uniform law
        spec = MlpSpec((7, 1000, 3))
        w = init_weights(spec, seed=4)
        var = w.weights[0].var()
        expected = 2.0 / (7 + 1000)
        assert abs(var - expected) < 0.2 * expected


class TestForward:
    def test_zero_weights_zero_output(self):
        spec = MlpSpec((7, 16, 3))
        w = init_weights(spec, 0)
        for arr in w.weights:
            arr[:] = 0.0
        assert np.abs(forward(w, np.ones(7), spec.activation)).max() == 0.0

    def test_single_neuron_hand_example(self):
        # one hidden unit reading feature 0, unit output weight on x
        w = MlpWeights(weights=[np.zeros((1, 7)), np.zeros((3, 1))],
                       biases=[np.zeros(1), np.zeros(3)])
        w.weights[0][0, 0] = 1.0
        w.weights[1][0, 0] = 1.0
        x = np.zeros(7)
        x[0] = 0.73
        out = forward(w, x, Activation.TANH)
        assert out[0] == pytest.approx(np.tanh(0.73), abs=1e-14)
        assert out[1] == out[2] == 0.0
        x[0] = 0.0
        assert np.abs(forward(w, x, Activation.TANH)).max() == 0.0

    def test_output_bound(self):
        spec = MlpSpec((7, 16, 16, 3))
        w = init_weights(spec, 7)
        bound = np.abs(w.weights[-1]).sum(axis=1) + np.abs(w.biases[-1])
        rng = np.random.default_rng(8)
        out = forward_batch(w, 10.0 * rng.standard_normal((200, 7)), spec.activation)
        assert np.all(np.abs(out) <= bound + 1e-12)

    def test_relu_variant(self):
        spec = MlpSpec((7, 4, 3), activation=Activation.RELU)
        w = MlpWeights(weights=[np.eye(4, 7), np.ones((3, 4))],
                       biases=[np.zeros(4), np.zeros(3)])
        x = np.array([-1.0, 2.0, -3.0, 4.0, 0, 0, 0])
        out = forward(w, x, Activation.RELU)
        assert out[0] == pytest.approx(6.0)     # relu sum = 2 + 4


class TestForwardBatchMatchesRowMajor:
    """The feature-major pass against ``a @ W.T + b`` on rows."""

    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    @pytest.mark.parametrize("rows", [1, 612, 3300])
    def test_same_outputs(self, activation, rows):
        spec = MlpSpec((7, 16, 16, 3), activation)
        w = init_weights(spec, seed=6)
        rng = np.random.default_rng(rows)
        w.biases = [rng.standard_normal(b.shape) for b in w.biases]
        X = rng.standard_normal((rows, 7))
        got = forward_batch(w, X, activation)
        want = reference_paths.row_major_forward_batch(w, X, activation)
        assert got.shape == (rows, 3)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestBackward:
    def test_perfect_fit_zero_gradient(self):
        spec = MlpSpec((7, 8, 3))
        w = init_weights(spec, 1)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((16, 7))
        Y = forward_batch(w, X, spec.activation)
        grads, loss = backward(w, X, Y, spec.activation)
        assert loss == 0.0
        assert all(np.abs(g).max() < 1e-14 for g in grads.weights + grads.biases)

    def test_gradients_match_finite_differences(self):
        spec = MlpSpec((7, 16, 16, 3))
        w = init_weights(spec, 3)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((32, 7))
        Y = rng.standard_normal((32, 3))
        grads, _ = backward(w, X, Y, spec.activation)
        h = 1e-6
        params = w.weights + w.biases
        grad_arrays = grads.weights + grads.biases
        worst = 0.0
        for _ in range(64):
            pi = rng.integers(0, len(params))
            arr = params[pi]
            j = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[j]
            arr[j] = orig + h
            _, lp = backward(w, X, Y, spec.activation)
            arr[j] = orig - h
            _, lm = backward(w, X, Y, spec.activation)
            arr[j] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - grad_arrays[pi][j]) / max(abs(fd), 1e-10))
        assert worst < 1e-5

    def test_batch_of_one_is_plain_loss(self):
        spec = MlpSpec((7, 8, 3))
        w = init_weights(spec, 5)
        x = np.ones((1, 7))
        y = np.zeros((1, 3))
        _, loss = backward(w, x, y, spec.activation)
        out = forward(w, x[0], spec.activation)
        assert loss == pytest.approx(0.5 * float(out @ out))


class TestAdam:
    def test_first_step_unit_gradient(self):
        spec = MlpSpec((7, 16, 3))
        w = init_weights(spec, 0)
        before = [a.copy() for a in w.weights + w.biases]
        ones = MlpWeights([np.ones_like(a) for a in w.weights],
                          [np.ones_like(b) for b in w.biases])
        cfg = AdamConfig()
        adam_step(w, ones, AdamState.zeros_like(w), cfg)
        for prev, now in zip(before, w.weights + w.biases):
            assert np.abs((now - prev) + cfg.lr / (1 + ADAM_EPS)).max() < 1e-6

    def test_zero_gradient_no_change(self):
        spec = MlpSpec((7, 16, 3))
        w = init_weights(spec, 1)
        before = [a.copy() for a in w.weights]
        zeros = MlpWeights([np.zeros_like(a) for a in w.weights],
                           [np.zeros_like(b) for b in w.biases])
        state = AdamState.zeros_like(w)
        for _ in range(10):
            adam_step(w, zeros, state, AdamConfig())
        for prev, now in zip(before, w.weights):
            assert np.array_equal(prev, now)

    def test_quadratic_convergence(self):
        # f(theta) = theta^2 via the same update path
        w = MlpWeights(weights=[np.array([[3.0]])], biases=[np.array([0.0])])
        state = AdamState.zeros_like(w)
        cfg = AdamConfig(lr=0.01)
        for step in range(10000):
            g = MlpWeights(weights=[2.0 * w.weights[0]], biases=[np.zeros(1)])
            adam_step(w, g, state, cfg)
            if abs(w.weights[0][0, 0]) < 1e-6:
                break
        assert abs(w.weights[0][0, 0]) < 1e-6

    def test_config_defaults_match_reference_protocol(self):
        cfg = AdamConfig()
        assert (cfg.lr, cfg.batch, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, cfg.epochs) == \
            (0.001, 1024, 0.9, 0.999, 1e-8, 10)


class TestTrain:
    def make_toy(self, n=10000, seed=1):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 7))
        A = 0.3 * rng.standard_normal((3, 7))
        return X, X @ A.T

    def test_learnable_toy_map_100x(self):
        X, Y = self.make_toy()
        res = train(MlpSpec((7, 16, 16, 3)), X[:9000], Y[:9000], X[9000:], Y[9000:],
                    AdamConfig(epochs=10, seed=3, batch=64))
        assert res.history[0][1] / res.history[-1][1] >= 100.0

    def test_bit_deterministic(self):
        X, Y = self.make_toy(2000)
        cfg = AdamConfig(epochs=3, seed=9)
        r1 = train(MlpSpec((7, 16, 3)), X[:1800], Y[:1800], X[1800:], Y[1800:], cfg)
        r2 = train(MlpSpec((7, 16, 3)), X[:1800], Y[:1800], X[1800:], Y[1800:], cfg)
        assert r1.history == r2.history
        for a, b in zip(r1.network.weights.weights, r2.network.weights.weights):
            assert np.array_equal(a, b)

    def test_history_length(self):
        X, Y = self.make_toy(1500)
        res = train(MlpSpec((7, 16, 3)), X[:1200], Y[:1200], X[1200:], Y[1200:],
                    AdamConfig(epochs=4, seed=0))
        assert len(res.history) == 5     # epoch 0 evaluation plus 4 epochs

    def test_nan_loss_aborts_with_diagnostics(self):
        X, Y = self.make_toy(1200)
        Xb = X.copy()
        # poison a feature after standardization cannot sanitize inf
        Yb = Y.copy()
        Yb[50] = 1e200
        with pytest.raises(TrainingDivergedError) as err:
            train(MlpSpec((7, 16, 3)), Xb[:1000], Yb[:1000], Xb[1000:], Yb[1000:],
                  AdamConfig(epochs=2, seed=0, batch=128))
        assert err.value.lr == 0.001

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            train(MlpSpec((7, 16, 3)), np.zeros((0, 7)), np.zeros((0, 3)),
                  np.zeros((1, 7)), np.zeros((1, 3)), AdamConfig(epochs=1))


class TestSerialization:
    def trained_net(self):
        spec = MlpSpec((7, 16, 16, 3))
        w = init_weights(spec, 13)
        scaler = FeatureScaler(mean=np.arange(7.0), std=np.ones(7) * 2.0)
        return MlpNetwork(spec=spec, weights=w, scaler=scaler)

    def test_round_trip_bit_identical(self):
        net = self.trained_net()
        buf = io.BytesIO()
        save_network(buf, net)
        buf.seek(0)
        again = load_network(buf)
        assert again.spec == net.spec
        for a, b in zip(net.weights.weights, again.weights.weights):
            assert np.array_equal(a, b)
        for a, b in zip(net.weights.biases, again.weights.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(net.scaler.mean, again.scaler.mean)
        assert np.array_equal(net.scaler.std, again.scaler.std)

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOPE" + b"\x00" * 64)
        with pytest.raises(NetworkFormatError, match="magic"):
            load_network(buf)

    def test_bad_version(self):
        net = self.trained_net()
        buf = io.BytesIO()
        save_network(buf, net)
        raw = bytearray(buf.getvalue())
        raw[4] = 99
        with pytest.raises(NetworkFormatError, match="version"):
            load_network(io.BytesIO(bytes(raw)))

    def test_truncated_stream(self):
        net = self.trained_net()
        buf = io.BytesIO()
        save_network(buf, net)
        raw = buf.getvalue()[:-20]
        with pytest.raises(NetworkFormatError, match="truncated"):
            load_network(io.BytesIO(raw))

    class Pipe:
        """A stream that can only be read, like a pipe: no seek, no size."""

        def __init__(self, data):
            self._buf = io.BytesIO(data)

        def read(self, n):
            return self._buf.read(n)

    @staticmethod
    def _load_small(raw, kind, tmp_path):
        """load_network must reject ``raw`` without allocating more than 1 MB."""
        import tracemalloc
        path = tmp_path / "hostile.dwnn"
        path.write_bytes(raw)
        with open(path, "rb") as f:
            stream = {"bytes": io.BytesIO(raw), "pipe": TestSerialization.Pipe(raw),
                      "file": f}[kind]
            tracemalloc.start()
            try:
                with pytest.raises(NetworkFormatError, match="truncated"):
                    load_network(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", ["bytes", "pipe", "file"])
    def test_huge_layer_shape_rejected(self, kind, tmp_path):
        import struct
        raw = b"DWNN" + struct.pack("<II", 1, 1) + struct.pack("<II", 2**32 - 1, 2**32 - 1)
        self._load_small(raw + b"\x00" * 64, kind, tmp_path)

    @pytest.mark.parametrize("kind", ["bytes", "pipe", "file"])
    def test_huge_name_length_rejected(self, kind, tmp_path):
        import struct
        net = self.trained_net()
        buf = io.BytesIO()
        save_network(buf, net)
        raw = bytearray(buf.getvalue())
        names = list(FEATURE_ORDER) + [net.spec.activation.value]
        first = len(raw) - sum(4 + len(n.encode()) for n in names)
        assert struct.unpack_from("<I", raw, first)[0] == len(names[0])
        struct.pack_into("<I", raw, first, 2**32 - 1)
        self._load_small(bytes(raw), kind, tmp_path)

    def test_reordered_feature_metadata_rejected(self):
        net = self.trained_net()
        buf = io.BytesIO()
        save_network(buf, net)
        raw = buf.getvalue()
        # swap the serialized names of features 0 and 1 (u_mag <-> w_mag)
        raw = raw.replace(b"u_mag", b"X_mag").replace(b"w_mag", b"u_mag") \
                 .replace(b"X_mag", b"w_mag")
        with pytest.raises(NetworkFormatError, match="feature order"):
            load_network(io.BytesIO(raw))

    def test_predict_applies_standardization(self):
        net = self.trained_net()
        x = np.arange(7.0)      # equals the scaler mean -> standardized zeros
        direct = forward_batch(net.weights, np.zeros((1, 7)), net.spec.activation)
        assert np.allclose(net.predict(x), direct)

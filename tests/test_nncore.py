import gc
import json
import weakref

import numpy as np
import pytest

import oplevel_reference as ref
from banditmatch import nncore
from banditmatch.nncore import Tensor
from banditmatch.policy import CheckpointError, ConfigurationError, MlpSpec, PolicyNet


def make_net(seed=0, input_dim=8, hidden=(6,), out=4):
    rng = np.random.default_rng(seed)
    return PolicyNet(MlpSpec(input_dim=input_dim, hidden_dims=hidden, output_dim=out), rng=rng)


class TestForward:
    def test_zero_net_outputs_half(self):
        net = PolicyNet(MlpSpec(input_dim=5, hidden_dims=(4,), output_dim=3), rng=None)
        p = net.probs(np.ones(5))
        assert np.allclose(p, 0.5)

    def test_single_logit_sigmoid(self):
        # one linear unit with weight 4 on a unit input
        net = PolicyNet(MlpSpec(input_dim=1, hidden_dims=(), output_dim=1), rng=None)
        net.weights[0].data[:] = 4.0
        p = net.probs(np.ones(1))
        assert abs(p[0] - 1.0 / (1.0 + np.exp(-4.0))) < 1e-12
        assert round(float(p[0]), 4) == 0.9820

    def test_deterministic(self):
        net = make_net()
        x = np.random.default_rng(1).random(8)
        assert np.array_equal(net.probs(x), net.probs(x))

    def test_probs_clamped_inside_unit_interval(self):
        net = make_net()
        net.weights[0].data *= 100.0  # force saturated logits
        p = net.probs(np.ones(8))
        assert np.all(p >= 1e-7) and np.all(p <= 1.0 - 1e-7)

    def test_forward_matches_probs(self):
        net = make_net()
        x = np.random.default_rng(2).random((3, 8))
        assert np.array_equal(net.forward(x).data, net.probs(x))

    def test_dimension_mismatch(self):
        net = make_net()
        with pytest.raises(ConfigurationError):
            net.probs(np.ones(9))


class TestBackward:
    def test_square_gradient(self):
        w = Tensor(3.0, requires_grad=True)
        loss = w * w
        loss.backward()
        assert np.allclose(w.grad, 6.0)

    def test_sigmoid_gradient_at_zero(self):
        w = Tensor(0.0, requires_grad=True)
        loss = ref.sigmoid(w)
        loss.backward()
        assert np.allclose(w.grad, 0.25)

    def test_backward_accumulates_without_zeroing(self):
        w = Tensor(2.0, requires_grad=True)
        (w * w).backward()
        (w * w).backward()
        assert np.allclose(w.grad, 8.0)

    def test_backward_requires_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(nncore.UsageError):
            (w * 2.0).backward()

    def test_mlp_bce_matches_finite_differences(self):
        net = make_net(seed=3)
        x = np.random.default_rng(4).random((5, 8))
        t = (np.random.default_rng(5).random((5, 4)) > 0.5).astype(float)

        def loss_fn():
            p = net.forward(x)
            return ref.mean(ref.bce_elementwise(p, t))

        err = ref.grad_check(loss_fn, net.parameters(), fd_epsilon=1e-5)
        assert err < 1e-4


    def test_graph_freed_without_cycle_collector(self):
        net = make_net(seed=6)
        x = np.random.default_rng(7).random((3, 8))
        gc.disable()
        try:
            probs = net.forward(x)  # fused node
            logp = ref.log(probs)  # op-level node
            loss = ref.tensor_sum(logp * 2.0)
            probes = [weakref.ref(probs), weakref.ref(logp), weakref.ref(loss)]
            loss.backward()
            del probs, logp, loss
            assert [p() for p in probes] == [None, None, None]
        finally:
            gc.enable()


class TestGradCheck:
    def test_linear_squared_loss_tiny_error(self):
        w = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        x = np.array([0.3, 0.7])

        def loss_fn():
            pred = ref.tensor_sum(w * x)
            diff = ref.sub(pred, 2.0)
            return diff * diff

        assert ref.grad_check(loss_fn, [w], fd_epsilon=1e-6) < 1e-8

    def test_constant_loss_gives_zero_error(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        err = ref.grad_check(lambda: Tensor(5.0) + 0.0 * w, [w])
        assert err == 0.0

    def test_nonfinite_loss_reported_as_failure(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        err = ref.grad_check(lambda: w * np.inf, [w])
        assert err == float("inf")


class TestOptimizers:
    def test_sgd_step_arithmetic(self):
        w = Tensor(1.0, requires_grad=True)
        w.grad = np.asarray(2.0)
        nncore.Sgd([w], learning_rate=0.1).step()
        assert np.allclose(w.data, 0.8)

    def test_zero_gradient_leaves_sgd_params_unchanged(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w.zero_grad()
        nncore.Sgd([w], learning_rate=0.5).step()
        assert np.array_equal(w.data, np.array([1.0, -2.0]))

    def test_zero_grad_keeps_one_gradient_array(self):
        # after the first step, zeroing fills each gradient in place, so a
        # training loop allocates no gradient array per step
        net = make_net(seed=5)
        net.zero_grad()
        grads = [p.grad for p in net.parameters()]
        ref.mean(net.forward(np.random.default_rng(6).random((3, 8)))).backward()
        assert all(g.any() for g in grads)
        net.zero_grad()
        assert all(p.grad is g and not g.any() for p, g in zip(net.parameters(), grads))

    def test_adam_scratch_is_one_pair_of_the_largest_size(self):
        params = make_net(seed=11, hidden=(6, 5)).parameters()
        opt = nncore.Adam(params)
        bases = [{id(view.base) for view in views} for views in zip(*opt._scratch)]
        assert [len(ids) for ids in bases] == [1, 1] and bases[0] != bases[1]
        largest = max(p.data.size for p in params)
        for p, views in zip(params, opt._scratch):
            for view in views:
                assert view.shape == p.shape and view.base.shape == (largest,)

    def test_nonfinite_gradient_aborts(self):
        w = Tensor(1.0, requires_grad=True)
        w.grad = np.asarray(np.nan)
        with pytest.raises(nncore.NonFiniteGradientError):
            nncore.Adam([w]).step()

    def test_same_seed_bitwise_identical_training(self):
        def run():
            net = make_net(seed=11)
            opt = nncore.Adam(net.parameters(), learning_rate=1e-3)
            x = np.random.default_rng(12).random((6, 8))
            t = (np.random.default_rng(13).random((6, 4)) > 0.5).astype(float)
            for _ in range(20):
                p = net.forward(x)
                loss = ref.mean(ref.bce_elementwise(p, t))
                net.zero_grad()
                loss.backward()
                opt.step()
            return [p.data.copy() for p in net.parameters()]

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        net = make_net(seed=21).clone_frozen()
        path = tmp_path / "ckpt.json"
        net.save(path)
        loaded = PolicyNet.load(path)
        assert loaded.spec == net.spec
        assert loaded.role == "frozen"
        tensors = loaded.named_parameters()
        for name, tensor in net.named_parameters().items():
            assert np.array_equal(tensors[name].data, tensor.data)
        # load then save gives back the file's exact bytes
        again = tmp_path / "again.json"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_net().save(path)
        payload = json.loads(path.read_text())
        payload["version"] = "v999"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            PolicyNet.load(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(CheckpointError):
            PolicyNet.load(path)


class TestSpecValidation:
    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            MlpSpec(input_dim=0, hidden_dims=(4,), output_dim=2)

    def test_unknown_activation_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_net().save(path)
        payload = json.loads(path.read_text())
        for activation in ("gelu", "tanh"):
            payload["spec"]["hidden_activation"] = activation
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError,
                               match=f"unknown hidden activation '{activation}'"):
                PolicyNet.load(path)

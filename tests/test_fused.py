"""The fused graph nodes against the op-level chains they replay, bit for bit.

Every case builds the same loss twice, once from ``PolicyNet.forward`` and the
``objectives`` losses (one node per forward pass and per loss term) and once
from the per-op reference in ``oplevel_reference``, and requires equal loss
bits and equal gradient bits on every parameter (``np.array_equal``).
"""

import numpy as np
import pytest

import oplevel_reference as ref
from banditmatch import fet, nncore
from banditmatch import objectives as obj
from banditmatch.policy import MlpSpec, PolicyNet

SEEDS = range(10)


def weighted_total(l_l, l_p, l_b, l_k):
    """The four terms under non-unit weights, written with Tensor ops the
    same way on both sides, so each fused loss also meets an upstream
    gradient other than 1."""
    return l_l + 0.7 * l_p + 1.3 * l_b + 0.35 * l_k


class Case:
    """A random network and batch; some seeds saturate logits past the clamp,
    clip the importance weights, or leave no positive rows."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(1000 + seed)
        d, c, b = int(rng.integers(3, 9)), int(rng.integers(2, 7)), int(rng.integers(2, 9))
        hidden = tuple(int(h) for h in rng.integers(2, 8, size=seed % 3))
        self.net = PolicyNet(MlpSpec(d, hidden, c), rng=rng)
        if seed % 4 == 3:
            for w in self.net.weights:
                w.data *= 8.0
        self.states = rng.random((b, d))
        self.weak = rng.random((b, d))
        self.strong = rng.random((b, d))
        self.split = rng.random((b + 1, d))
        self.split_targets = rng.random((b + 1, c)) < 0.4
        self.logged = rng.random((b, c)) < 0.4
        self.rho = rng.uniform(0.05, 0.95, (b, c))
        self.delta = (rng.random(b) < (0.0 if seed == 5 else 0.5)).astype(np.int64)
        p = self.net.probs(self.weak)
        self.conf = fet.confidence_mask(p, self.delta, ref.narrow_band(c))
        self.qhat = obj.pseudo_labels(p)
        self.umask = obj.unconfident_plus_mask(self.delta, self.conf, self.logged)
        self.ref_probs = rng.uniform(0.05, 0.95, (b, c))
        # odd seeds clip the importance weights at 2 (the test patches the constant)
        self.clip = 2.0 if seed % 2 else obj.DEFAULT_IPS_CLIP

    def composite(self, forward, losses, total=weighted_total):
        """The banditmatch step's graph, built in the trainer's order."""
        plain = forward(self.net, self.states)
        weak = forward(self.net, self.weak)
        l_l = losses.loss_labeled(weak, self.logged, self.delta)
        strong = forward(self.net, self.strong)
        l_p = losses.loss_pseudo(strong, self.qhat, self.conf)
        l_b = losses.loss_bandit(plain, self.rho, self.delta, self.umask)
        l_k = losses.loss_kl_control(plain, self.ref_probs)
        return total(l_l, l_p, l_b, l_k)

    def fixmatch(self, forward, losses):
        """The fixmatch step's graph, built in the trainer's order: the weak
        pass only sets the mask and pseudo-labels, the labeled term is on the
        mixed split, and there is no plain pass, bandit or KL term."""
        weak_probs = forward(self.net, self.weak).data
        conf = fet.confidence_mask(weak_probs, self.delta, ref.narrow_band(weak_probs.shape[1]))
        ones = np.ones(len(self.split), dtype=np.int64)
        l_l = losses.loss_labeled(forward(self.net, self.split), self.split_targets, ones)
        if conf.any():
            strong = forward(self.net, self.strong)
            l_p = losses.loss_pseudo(strong, obj.pseudo_labels(weak_probs), conf)
        else:
            l_p = nncore.Tensor(0.0)
        return weighted_total(l_l, l_p, nncore.Tensor(0.0), nncore.Tensor(0.0))

    def builds(self):
        """name -> builder(forward, losses) of a scalar loss."""
        s = self

        def crm(kind):
            def build(forward, losses):
                probs = forward(s.net, s.states)
                crm_loss = losses.loss_ips if kind == "ips" else losses.loss_banditnet
                loss = crm_loss(probs, s.rho, s.delta, s.logged)
                return loss + 0.35 * losses.loss_kl_control(probs, s.ref_probs)
            return build

        return {
            "labeled": lambda f, L: L.loss_labeled(f(s.net, s.weak), s.logged, s.delta),
            "pseudo": lambda f, L: L.loss_pseudo(f(s.net, s.strong), s.qhat, s.conf),
            "bandit": lambda f, L: L.loss_bandit(f(s.net, s.states), s.rho, s.delta, s.umask),
            "kl": lambda f, L: L.loss_kl_control(f(s.net, s.states), s.ref_probs),
            "ips": lambda f, L: L.loss_ips(f(s.net, s.states), s.rho, s.delta, s.logged),
            "banditnet": lambda f, L: L.loss_banditnet(f(s.net, s.states), s.rho, s.delta,
                                                       s.logged),
            "composite": s.composite,
            "fixmatch": s.fixmatch,
            "ips_kl": crm("ips"),
            "banditnet_kl": crm("banditnet"),
        }


def fused_forward(net, states):
    return net.forward(states)


def run(case: Case, build, forward, losses):
    params = case.net.parameters()
    case.net.zero_grad()
    loss = build(forward, losses)
    loss.backward()
    return loss.data.copy(), [p.grad.copy() for p in params]


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_losses_and_gradients_bit_identical(seed, monkeypatch):
    case = Case(seed)
    monkeypatch.setattr(obj, "DEFAULT_IPS_CLIP", case.clip)
    for name, build in case.builds().items():
        value, grads = run(case, build, fused_forward, obj)
        ref_value, ref_grads = run(case, build, ref.mlp_forward, ref)
        assert np.array_equal(value, ref_value), name
        for i, (g, r) in enumerate(zip(grads, ref_grads)):
            assert np.array_equal(g, r), f"{name}: parameter {i}"


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_gradient_pass_keeps_the_gradient_bits(seed):
    # a pass whose incoming gradient is zero everywhere stops its backward at
    # once; alone or after a pass with gradient, every parameter gradient has
    # the bits of the full op-level chain, including the sign of each zero
    case = Case(seed)
    weights = np.random.default_rng(seed).standard_normal((len(case.states), case.net.num_actions))
    zero = np.zeros_like(weights)
    builds = {
        "zero pass": lambda f, _: ref.tensor_sum(f(case.net, case.weak) * zero),
        "then a zero pass": lambda f, _: (ref.tensor_sum(f(case.net, case.states) * weights)
                                          + ref.tensor_sum(f(case.net, case.weak) * zero)),
    }
    for name, build in builds.items():
        _, grads = run(case, build, fused_forward, obj)
        _, ref_grads = run(case, build, ref.mlp_forward, ref)
        for i, (g, r) in enumerate(zip(grads, ref_grads)):
            assert g.tobytes() == r.tobytes(), f"{name}: parameter {i}"


def test_gradient_zeroed_by_relus_keeps_the_gradient_bits():
    # every hidden relu is off, so the gradient turns zero below the output
    # layer and the backward stops there; a fresh clone has no gradient
    # arrays yet, and the skipped layers still get theirs
    net = PolicyNet(MlpSpec(5, (4, 3), 2), rng=np.random.default_rng(8))
    net.biases[0].data[:] = -1e3
    net.biases[1].data[:] = -1.0
    states = np.random.default_rng(9).random((6, 5))
    weights = np.random.default_rng(10).standard_normal((6, 2))
    grads = []
    for forward in (PolicyNet.forward, ref.mlp_forward):
        clone = net.clone_trainable()
        ref.tensor_sum(forward(clone, states) * weights).backward()
        grads.append([p.grad.tobytes() for p in clone.parameters()])
    assert grads[0] == grads[1]
    assert np.any(np.frombuffer(grads[0][-1])) and not np.any(np.frombuffer(grads[0][0]))


def test_fused_forward_matches_op_chain():
    case = Case(3)
    for states in (case.states, case.states[0]):
        assert np.array_equal(case.net.forward(states).data, ref.mlp_forward(case.net, states).data)


def test_composite_graph_has_one_node_per_forward_and_loss():
    case = Case(1)
    total = case.composite(fused_forward, obj, obj.total_loss)
    nodes, stack = {}, [total]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    params = {id(p) for p in case.net.parameters()}
    # 3 forward passes + 4 loss terms + total_loss's 3 adds
    assert len(nodes.keys() - params) == 3 + 4 + 3


def test_adam_in_place_matches_plain_expressions():
    rng = np.random.default_rng(7)
    a = PolicyNet(MlpSpec(5, (4,), 3), rng=rng)
    b = a.clone_trainable()
    opt = nncore.Adam(a.parameters(), learning_rate=1e-2)
    ref_opt = ref.Adam(b.parameters(), learning_rate=1e-2)
    for _ in range(6):
        for pa, pb in zip(a.parameters(), b.parameters()):
            pa.grad = rng.standard_normal(pa.shape)
            pb.grad = pa.grad.copy()
        opt.step()
        ref_opt.step()
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)


@pytest.mark.parametrize("seed", range(6))
def test_correctness_by_set_size_matches_record_loop(seed):
    rng = np.random.default_rng(seed)
    n, c = 40, 24
    # set sizes 0..20, so row sums also take numpy's unrolled summation path
    sizes = rng.integers(0, 21, size=n)
    sets = np.zeros((n, c), dtype=bool)
    for i, k in enumerate(sizes):
        sets[i, rng.choice(c, size=k, replace=False)] = True
    # ranges that keep both estimates below the clamp, so the test sees the sums
    low, high = rng.uniform(0.01, 0.5, (n, c)), rng.uniform(0.5, 0.99, (n, c))
    nonempty = sets.any(axis=1)
    pos_args = (low[nonempty], sets[nonempty], high[nonempty])
    expected_pos = ref.model_correctness_pos(*pos_args)
    expected_neg = ref.model_correctness_neg(high, sets, low)
    assert max(expected_pos, expected_neg) < 1.0 - fet.CORRECTNESS_EPS
    assert fet.model_correctness_pos(*pos_args) == expected_pos
    assert fet.model_correctness_neg(high, sets, low) == expected_neg
    # one record at a time too: a batch mean can round away a last-bit change
    for i in np.flatnonzero(nonempty):
        row = slice(i, i + 1)
        args = (low[row], sets[row], high[row])
        assert fet.model_correctness_pos(*args) == ref.model_correctness_pos(*args)
        args = (high[row], sets[row], low[row])
        assert fet.model_correctness_neg(*args) == ref.model_correctness_neg(*args)

"""Acceptance suite: one test per criterion, one printed line per verdict.

The interactive-comparison criteria share a session fixture that runs the
full 5-seed protocol (logging policy, composite method, baselines, and the
two ablation rows) on the default world at a 10% labeled split with 500
evaluation dialogs per seed, through the package's own grid point
(``trainer.log_point``, every seed's in one ``trainer.map_jobs``) and grid
runner (``trainer.run_grid``, every seed's rows in one pool call).
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

from dialogworld_reference import enumerate_goals
from oplevel_reference import grad_check, mixup_pair, narrow_band
from banditmatch import cli, datasets as ds, dialogworld as dw, fet
from banditmatch import objectives as obj
from banditmatch import trainer as tr
from banditmatch.nncore import Tensor
from banditmatch.policy import MlpSpec, PolicyNet, policy_spec_for
from dataclasses import replace


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


# -- criterion 1: gradient suite ------------------------------------------------------


def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite < 1e-4 on every loss"):
        started = time.time()
        net = PolicyNet(
            MlpSpec(input_dim=8, hidden_dims=(6,), output_dim=4),
            rng=np.random.default_rng(100),
        )
        rng = np.random.default_rng(101)
        states = rng.random((6, 8))
        logged = rng.random((6, 4)) < 0.5
        rho = rng.uniform(0.15, 0.85, (6, 4))
        delta = (rng.random(6) < 0.5).astype(int)
        conf = fet.confidence_mask(net.probs(states), delta, narrow_band(4))
        qhat = obj.pseudo_labels(net.probs(states))
        mask = obj.unconfident_plus_mask(delta, conf, logged)
        ref = rng.uniform(0.2, 0.8, (6, 4))
        cases = {
            "L_L": lambda: obj.loss_labeled(net.forward(states), logged, delta),
            "L_P": lambda: obj.loss_pseudo(net.forward(states), qhat, conf),
            "L_B": lambda: obj.loss_bandit(net.forward(states), rho, delta, mask),
            "L_K": lambda: obj.loss_kl_control(net.forward(states), ref),
            "total": lambda: obj.total_loss(
                obj.loss_labeled(net.forward(states), logged, delta),
                obj.loss_pseudo(net.forward(states), qhat, conf),
                obj.loss_bandit(net.forward(states), rho, delta, mask),
                obj.loss_kl_control(net.forward(states), ref),
            ),
            "ips": lambda: obj.loss_ips(net.forward(states), rho, delta, logged),
            "banditnet": lambda: obj.loss_banditnet(net.forward(states), rho, delta, logged),
        }
        for name, fn in cases.items():
            err = grad_check(fn, net.parameters(), fd_epsilon=1e-5)
            assert err < 1e-4, f"{name}: max relative error {err}"
        assert time.time() - started < 60.0


# -- criterion 2: pseudoinverse estimator oracle ----------------------------------------


def test_criterion_02_pi_estimator_oracle():
    with criterion(2, "PI value estimate matches subset enumeration (1e-9)"):
        rhos = np.array([[0.25, 0.5], [0.75, 0.25], [0.5, 0.5], [0.75, 0.75]])
        truths = [{0}, {0, 1}, {1}, set()]
        subsets = [set(s) for k in range(3) for s in itertools.combinations(range(2), k)]

        def subset_prob(rho, subset):
            p = 1.0
            for c in range(2):
                p *= rho[c] if c in subset else 1.0 - rho[c]
            return p

        expected = sum(
            subset_prob(rho, subset) * (1.0 if subset == truth else 0.0)
            for rho, truth in zip(rhos, truths)
            for subset in subsets
        ) / len(rhos)

        rows_p, rows_rho, rows_delta, rows_mask = [], [], [], []
        for rho, truth in zip(rhos, truths):
            for subset in subsets:
                copies = round(16 * subset_prob(rho, subset))
                member = [1.0 if c in subset else 0.0 for c in range(2)]
                for _ in range(copies):
                    rows_p.append(rho)  # evaluated at pi = pi0
                    rows_rho.append(rho)
                    rows_delta.append(1 if subset == truth else 0)
                    rows_mask.append(member)
        estimate = obj.bandit_value_estimate(
            np.array(rows_p), np.array(rows_rho), np.array(rows_delta), np.array(rows_mask)
        )
        assert abs(estimate - expected) < 1e-9

        # the bandit loss is the same numerator under its mask normalization
        loss = obj.loss_bandit(
            Tensor(np.array(rows_p)), np.array(rows_rho),
            np.array(rows_delta), np.array(rows_mask),
        ).item()
        total_mask = float(np.sum(rows_mask))
        assert abs(loss + estimate * len(rows_delta) / total_mask) < 1e-12


# -- criterion 3: FET oracle fixture ------------------------------------------------------


def test_criterion_03_fet_oracle():
    with criterion(3, "FET outputs match direct formula evaluation (1e-12)"):
        pos_probs = np.array(
            [[0.91, 0.12, 0.33], [0.76, 0.81, 0.44], [0.35, 0.90, 0.61]]
        )
        pos_sets = np.array(
            [[True, False, False], [True, True, False], [False, True, True]]
        )
        pos_rho = np.array(
            [[0.85, 0.20, 0.40], [0.70, 0.75, 0.30], [0.25, 0.80, 0.55]]
        )
        neg_probs = np.array([[0.60, 0.20, 0.70], [0.30, 0.55, 0.80]])
        neg_sets = np.array([[True, False, True], [False, True, True]])
        neg_rho = np.array([[0.66, 0.10, 0.72], [0.20, 0.58, 0.90]])

        # direct, loop-level transcription of the defining formulas
        correct_ref = []
        for p, s in zip(pos_probs, pos_sets):
            correct_ref.append({c for c in range(3) if p[c] > 0.5} == {c for c in range(3) if s[c]})
        correct_ref = np.array(correct_ref)
        t_probs, t_sets, t_rho = pos_probs[correct_ref], pos_sets[correct_ref], pos_rho[correct_ref]
        accept_ref, reject_ref = np.zeros(3), np.zeros(3)
        va_ref, vr_ref = np.zeros(3, bool), np.zeros(3, bool)
        for c in range(3):
            ins = [p[c] for p, s in zip(t_probs, t_sets) if s[c]]
            outs = [p[c] for p, s in zip(t_probs, t_sets) if not s[c]]
            if ins:
                accept_ref[c], va_ref[c] = sum(ins) / len(ins), True
            if outs:
                reject_ref[c], vr_ref[c] = sum(outs) / len(outs), True
        mc_pos_ref = float(
            np.mean(
                [
                    sum((1.0 / s.sum()) * p[c] / r[c] for c in range(3) if s[c])
                    for p, s, r in zip(t_probs, t_sets, t_rho)
                ]
            )
        )
        mc_pos_ref = min(max(mc_pos_ref, 0.0), 1.0 - 1e-3)
        mc_neg_terms = []
        for p, s, r in zip(neg_probs, neg_sets, neg_rho):
            members = [c for c in range(3) if s[c]]
            total = sum(r[c] for c in members)
            mc_neg_terms.append(
                sum((r[c] / total) * (1.0 - p[c]) / (1.0 - r[c]) for c in members)
            )
        mc_neg_ref = min(max(float(np.mean(mc_neg_terms)), 0.0), 1.0 - 1e-3)
        scale = (1.0 - mc_neg_ref) / (1.0 - mc_pos_ref)
        accept_n_ref = np.where(
            va_ref, np.clip(accept_ref * scale, 0.5, 1.0), fet.FALLBACK_ACCEPT
        )
        reject_n_ref = np.where(
            vr_ref, np.clip(1.0 - (1.0 - reject_ref) * scale, 0.0, 0.5), fet.FALLBACK_REJECT
        )

        correct = fet.exact_match_rows(pos_probs, pos_sets)
        assert correct.tolist() == correct_ref.tolist()
        accept, reject, va, vr = fet.positive_thresholds(pos_probs[correct], pos_sets[correct])
        assert va.tolist() == va_ref.tolist() and vr.tolist() == vr_ref.tolist()
        assert np.all(np.abs(accept[va] - accept_ref[va]) < 1e-12)
        assert np.all(np.abs(reject[vr] - reject_ref[vr]) < 1e-12)
        assert np.allclose(fet.attribution_neg(neg_rho[0][neg_sets[0]]),
                           neg_rho[0][neg_sets[0]] / neg_rho[0][neg_sets[0]].sum(),
                           atol=1e-15)
        mc_pos = fet.model_correctness_pos(pos_probs[correct], pos_sets[correct], pos_rho[correct])
        mc_neg = fet.model_correctness_neg(neg_probs, neg_sets, neg_rho)
        assert abs(mc_pos - mc_pos_ref) < 1e-12
        assert abs(mc_neg - mc_neg_ref) < 1e-12
        out = fet.negative_thresholds(accept, reject, va, vr, mc_pos, mc_neg)
        assert np.all(np.abs(out.accept - accept_n_ref) < 1e-12)
        assert np.all(np.abs(out.reject - reject_n_ref) < 1e-12)

        # identity case: equal correctness leaves the baselines untouched
        # on classes the clamps do not move
        identity = fet.negative_thresholds(accept, reject, va, vr, 0.4, 0.4)
        inside_a = va & (accept >= 0.5) & (accept <= 1.0)
        inside_r = vr & (reject >= 0.0) & (reject <= 0.5)
        assert np.all(np.abs(identity.accept[inside_a] - accept[inside_a]) < 1e-12)
        assert np.all(np.abs(identity.reject[inside_r] - reject[inside_r]) < 1e-12)


# -- criterion 4: randomized threshold invariants ------------------------------------------


def test_criterion_04_threshold_invariants():
    with criterion(4, "10k randomized FET evaluations hold every invariant"):
        rng = np.random.default_rng(4242)
        for _ in range(10_000):
            c = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            probs = rng.uniform(0.01, 0.99, size=(n, c))
            sets = rng.random((n, c)) < 0.4
            accept, reject, va, vr = fet.positive_thresholds(probs, sets)
            mc_pos = float(rng.uniform(0.0, 1.2))
            mc_neg = float(rng.uniform(0.0, 1.2))
            out = fet.negative_thresholds(accept, reject, va, vr, mc_pos, mc_neg)
            assert np.all(out.accept >= 0.5 - 1e-12) and np.all(out.accept <= 1.0 + 1e-12)
            assert np.all(out.reject >= -1e-12) and np.all(out.reject <= 0.5 + 1e-12)
            row = sets[0]
            if row.any():
                assert abs(fet.attribution_neg(probs[0][row]).sum() - 1.0) < 1e-12
                assert abs(fet.attribution_pos(int(row.sum())) * row.sum() - 1.0) < 1e-12
            delta = (rng.random(n) < 0.5).astype(int)
            conf = fet.confidence_mask(probs, delta, out)
            assert not np.any(conf[delta == 1])
            stricter = fet.negative_thresholds(
                accept, reject, va, vr, mc_pos, max(mc_neg - 0.25, 0.0)
            )
            assert np.all(stricter.accept >= out.accept - 1e-12)
            assert np.all(stricter.reject <= out.reject + 1e-12)


# -- criterion 5: mix-up property ------------------------------------------------------------


def test_criterion_05_mixup_property():
    with criterion(5, "mix-up weight >= 0.5 over 10k draws; identity at 1"):
        rng = np.random.default_rng(55)
        for alpha in (0.2, 2.0):
            lam = obj.sample_mixup_lambda(alpha, rng, 10_000)
            assert lam.min() >= 0.5
        anchor = np.array([0.2, 0.8, 1.0])
        partner = np.array([0.9, 0.1, 0.0])
        assert np.array_equal(mixup_pair(anchor, partner, 1.0), anchor)


# -- criteria 6 and 7: interactive comparison --------------------------------------------------

COMPARISON_SEEDS = (1, 2, 3, 4, 5)
EVAL_DIALOGS = 500


@pytest.fixture(scope="session")
def comparison():
    """5-seed paired protocol on the default world at a 10% split."""
    started = time.time()
    schema = dw.default_schema()
    corpus = ds.generate_corpus(schema, 400, seed=123)
    configs = [tr.TrainConfig(seed=seed) for seed in COMPARISON_SEEDS]
    logged = tr.map_jobs(lambda cfg: tr.log_point(corpus, schema, 0.10, cfg), configs)
    points = [
        (*point, 9000 + cfg.seed, [
            ("logging", None),
            ("banditmatch", cfg),
            ("fixmatch", replace(cfg, method="fixmatch")),
            ("ips", replace(cfg, method="ips")),
            ("banditnet", replace(cfg, method="banditnet")),
            ("no_cbl", replace(cfg, no_cbl=True)),
            ("no_fet", replace(cfg, no_fet=True)),
        ])
        for point, cfg in zip(logged, configs)
    ]
    rows: dict[str, list] = {}
    for reports in tr.run_grid(points, schema, EVAL_DIALOGS, 1):
        for report in reports:
            rows.setdefault(report.method, []).append(report.metrics)
    means = {
        name: {
            metric: float(np.mean([r[metric][0] for r in metric_rows]))
            for metric in metric_rows[0]
        }
        for name, metric_rows in rows.items()
    }
    return means, time.time() - started


def test_criterion_06_directional_reproduction(comparison):
    with criterion(6, "directional orderings of the interactive comparison"):
        means, elapsed = comparison
        assert elapsed < 1800.0, f"comparison took {elapsed:.0f}s"
        assert means["banditmatch"]["success"] > means["logging"]["success"]
        assert means["banditmatch"]["success"] > means["fixmatch"]["success"]
        assert means["banditmatch"]["inform_f1"] > means["ips"]["inform_f1"]
        assert means["banditmatch"]["inform_f1"] > means["banditnet"]["inform_f1"]


def test_criterion_07_ablation_direction(comparison):
    with criterion(7, "ablation orderings on paired seeds"):
        means, _ = comparison
        assert means["no_cbl"]["success"] < means["banditmatch"]["success"]
        assert means["no_fet"]["inform_f1"] <= means["banditmatch"]["inform_f1"]


# -- criterion 8: feedback simulation oracle -----------------------------------------------------


def test_criterion_08_feedback_oracle():
    with criterion(8, "feedback matches brute-force set equality; log invariants"):
        rng = np.random.default_rng(88)
        for _ in range(10_000):
            c = int(rng.integers(1, 8))
            a, b = rng.random((2, c)) < 0.4
            brute = 1 if sorted(np.flatnonzero(a)) == sorted(np.flatnonzero(b)) else 0
            assert ds.simulate_feedback(a, b) == brute

        schema = dw.default_schema()
        corpus = ds.generate_corpus(schema, 30, seed=7)
        from banditmatch.policy import PolicyNet

        policy = PolicyNet(
            policy_spec_for(schema, hidden_dims=(16,)), rng=np.random.default_rng(9)
        ).clone_frozen()
        records = ds.log_bandit_data(policy, corpus)
        for rec, ex in zip(records, corpus):
            logged = set(rec.logged_actions.tolist())
            assert logged == set(np.flatnonzero(rec.propensities > 0.5).tolist())
            assert rec.feedback == (1 if logged == set(ex.actions.tolist()) else 0)


# -- criterion 9: pipeline determinism ------------------------------------------------------------


def test_criterion_09_pipeline_determinism(tmp_path):
    with criterion(9, "byte-identical report CSVs from identical manifests"):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("sl_epochs = 8\nepochs = 2\nhidden_dims = 16\nbatch_size = 32\n")

        def pipeline(root):
            root.mkdir()
            world = root / "world.json"
            corpus = root / "corpus.jsonl"
            data = root / "data"
            ckpt = root / "policy.json"
            report = root / "report.csv"
            argv_sets = [
                ["gen-world", "--out", world],
                ["gen-corpus", "--world", world, "--n-dialogs", 30, "--seed", 5,
                 "--out", corpus],
                ["split-and-log", "--world", world, "--corpus", corpus,
                 "--labeled-fraction", 0.2, "--seed", 5, "--config", cfg,
                 "--out-dir", data],
                ["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                 "--logging-policy", data / "logging_policy.json", "--config", cfg,
                 "--seed", 5, "--out", ckpt],
                ["evaluate", "--world", world, "--checkpoint", ckpt,
                 "--n-dialogs", 20, "--n-runs", 2, "--seed", 5, "--out", report],
            ]
            for argv in argv_sets:
                assert cli.main([str(a) for a in argv]) == 0
            return report.read_bytes()

        first = pipeline(tmp_path / "run_a")
        second = pipeline(tmp_path / "run_b")
        assert first == second


# -- criterion 10: expert oracle --------------------------------------------------------------------


def test_criterion_10_expert_oracle():
    with criterion(10, "expert perfect on the exhaustive tiny-world goals"):
        schema = dw.tiny_schema()
        goals = enumerate_goals(schema)
        assert goals, "goal enumeration must be non-empty"
        for goal in goals:
            metrics = dw.run_expert_episode(schema, goal)
            assert metrics.success == 1, goal
            assert metrics.inform_f1 == 1.0, goal

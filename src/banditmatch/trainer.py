"""Training loops and the evaluation protocol.

Covers: supervised training of the logging policy, fine-tuning on logged
feedback (the full composite objective, its ablations, and the baseline
objectives), interactive evaluation against the dialog world, and the
paired comparison protocol: a grid point (split, logging policy, log) and
one grid runner that trains each point's rows on its log and evaluates them
on one shared seed, every (point, row) in one ``map_jobs``. The ablation
table, the labeled-percentage sweep and the acceptance comparison use both.

Fine-tuning warm-starts from the logging policy. Each step draws a
uniform batch from the log, refreshes the adaptive thresholds from the
batch's correct positives and negatives, builds the confidence and
bandit-eligibility masks, and descends the sum of the four loss
terms. The KL control term's reference is the batch's logged propensities
``rho``, the logging policy's probabilities as recorded in the log, so no
pass re-runs the logging policy. Every method trains its full budget and
returns the final model.
A tenth of the log (rounded down) is set aside before training and never
read. The kept rows are never copied: each batch gathers its own rows from
the log.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import datasets, fet, nncore, objectives
from .datasets import BanditLog, Corpus, SplitConfig
from .dialogworld import (
    WorldSchema,
    compute_aggregate,
    run_episode,
    run_expert_episode,
    sample_goal,
)
from .nncore import LOGIT_CLAMP, Tensor
from .policy import ActionSetPolicy, MlpSpec, PolicyNet, policy_spec_for, predicted_mask
from .seeding import derive_rng

METHOD_BANDITMATCH = "banditmatch"
METHOD_FIXMATCH = "fixmatch"
METHOD_IPS = "ips"
METHOD_BANDITNET = "banditnet"

FINETUNE_METHODS = (METHOD_BANDITMATCH, METHOD_FIXMATCH, METHOD_IPS, METHOD_BANDITNET)

ABLATIONS = ("full", "no_mc_scale", "no_fet", "no_cbl", "no_kl", "none_all")

DEFAULT_SWEEP_PERCENTAGES = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90)


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 64
    epochs: int = 30
    sl_epochs: int = 240
    learning_rate: float = 1e-3
    hidden_dims: tuple[int, ...] = (128, 128)
    method: str = METHOD_BANDITMATCH
    add_kl: bool = False  # "+ KL control" variants of ips / banditnet
    no_mc_scale: bool = False
    no_fet: bool = False
    no_cbl: bool = False
    no_kl: bool = False

    def __post_init__(self):
        if self.method not in FINETUNE_METHODS:
            raise TrainerError(
                f"unknown method {self.method!r} (choose from {FINETUNE_METHODS})"
            )
        if self.method != METHOD_BANDITMATCH and any(
            (self.no_mc_scale, self.no_fet, self.no_cbl, self.no_kl)
        ):
            raise TrainerError("ablation switches only apply to the banditmatch method")
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be at least 1, got {self.batch_size}")
        # a zero learning rate is a run that never moves the policy
        for name in ("seed", "epochs", "sl_epochs", "learning_rate"):
            if getattr(self, name) < 0:
                raise TrainerError(f"{name} must not be negative, got {getattr(self, name)}")
        if not math.isfinite(self.learning_rate):
            raise TrainerError(f"learning_rate must be finite, got {self.learning_rate}")


def apply_ablation(config: TrainConfig, ablation: str) -> TrainConfig:
    """Translate a named ablation row into config switches."""
    if ablation not in ABLATIONS:
        raise TrainerError(f"unknown ablation {ablation!r}")
    if ablation == "full":
        return replace(config)
    if ablation == "none_all":
        return replace(config, no_fet=True, no_cbl=True, no_kl=True)
    return replace(config, **{ablation: True})


@dataclass
class StepLog:
    step: int
    loss_labeled: float
    loss_pseudo: float
    loss_bandit: float
    loss_kl: float
    total: float
    n_confident: int
    n_unconfident: int
    mc_pos: float
    mc_neg: float


TRAINING_LOG_COLUMNS = tuple(f.name for f in fields(StepLog))


def write_training_log(path, rows: list[StepLog]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_LOG_COLUMNS)
        for r in rows:
            writer.writerow([repr(getattr(r, c)) for c in TRAINING_LOG_COLUMNS])


def write_threshold_trace(path, rows: list[StepLog],
                          thresholds: dict[int, fet.ThresholdSet]) -> None:
    """Per-step per-class FET thresholds: ``thresholds[step]`` is the set
    ``train_on_log``'s ``on_thresholds`` hook received at that step, and
    ``rows`` its step log, which gives each step's correctness. Header only
    when no step ran FET."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "class", "accept", "reject", "mc_pos", "mc_neg"])
        for r in rows:
            t = thresholds.get(r.step)
            if t is None:
                continue
            for c, (accept, reject) in enumerate(zip(t.accept, t.reject)):
                writer.writerow([r.step, c, repr(float(accept)), repr(float(reject)),
                                 repr(r.mc_pos), repr(r.mc_neg)])


# -- supervised training -----------------------------------------------------------

# the supervised targets' label smoothing: 1 - eps / 2 in the set, eps / 2 outside
SL_LABEL_SMOOTHING = 0.2


def _descend(policy: PolicyNet, rng: np.random.Generator, n: int, epochs: int,
             config: TrainConfig, step) -> None:
    """The descent loop of both trainers: Adam over the trainable
    parameters and, per epoch, one ``rng`` permutation of the ``n`` rows cut
    into ``batch_size`` slices. ``step(idx)`` returns the slice's loss."""
    opt = nncore.Adam(policy.trainable_parameters(), config.learning_rate)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            loss = step(order[start : start + config.batch_size])
            policy.zero_grad()
            loss.backward()
            opt.step()
            # free this step's graph before the next step builds one. The
            # first zero_grad, after the first build, puts the gradients above
            # that graph on glibc's heap, and later ones zero them in place: so
            # each freed graph is reused by the next step, not handed back to
            # the OS and faulted in again (zeroing before the build did that,
            # with ten times the page faults of a protocol run)
            del loss


def train_supervised(examples: Corpus, spec: MlpSpec, config: TrainConfig) -> PolicyNet:
    """Per-class BCE on expert-labeled examples (no augmentation), drawing the
    initial weights and the batch order from the ``logging`` stream.

    Targets are label-smoothed (``SL_LABEL_SMOOTHING``) so the fitted
    probabilities do not saturate on a small corpus: the logged propensities
    ``rho`` stay inside about [0.002, 0.993], away from 0 and 1, which keeps
    the downstream importance ratios pi/rho finite. The smoothing does not
    calibrate them: on the acceptance fixture's pools the expected
    calibration error of ``rho`` against the expert sets is about 0.10. The
    decision thresholds are unaffected. A run that diverges
    (``_check_can_learn``) raises ``TrainerError``.
    """
    if not examples:
        raise TrainerError("supervised training needs at least one example")
    rng = derive_rng(config.seed, "logging")
    policy = PolicyNet(spec, rng=rng)
    states = examples.states
    eps = SL_LABEL_SMOOTHING
    targets = examples.action_mask(spec.output_dim).astype(np.float64) * (1.0 - eps) + eps / 2.0
    delta = np.ones(len(examples), dtype=np.int64)
    _descend(policy, rng, len(examples), config.sl_epochs, config,
             lambda idx: objectives.loss_labeled(policy.forward(states[idx]), targets[idx],
                                                 delta[idx]))
    _check_can_learn(policy, states)
    return policy


def _check_can_learn(policy: PolicyNet, states: np.ndarray, rows=None) -> None:
    """Refuse a trained policy whose every logit on the training rows lies
    outside the clamp: no gradient reaches it there, so it can never learn
    again, and every probability it gives is a clamp value."""
    if policy.all_logits_clamped(states, rows):
        n = len(states) if rows is None else len(rows)
        raise TrainerError(f"training diverged: every logit is outside ±{LOGIT_CLAMP:g} on the "
                           f"{n} training rows")


def train_logging_policy(labeled: Corpus, spec: MlpSpec, config: TrainConfig) -> PolicyNet:
    """Supervised training on the labeled split; returned frozen."""
    policy = train_supervised(labeled, spec, config)
    return policy.clone_frozen()


# -- fine-tuning on the log ----------------------------------------------------------


def train_on_log(
    logging_policy: PolicyNet,
    log: BanditLog,
    config: TrainConfig,
    labeled_split: Corpus | None = None,
    on_thresholds=None,
) -> tuple[PolicyNet, list[StepLog]]:
    """Fine-tune a copy of the logging policy on the logged feedback.

    Dispatches on ``config.method``; ablation switches refine the
    composite method. ``labeled_split`` is the small expert split, read
    only by the feedback-blind fixmatch baseline, which requires it (it is
    that method's only labeled data; logged feedback enters solely through
    the unlabeled pseudo-label pathway). Every other method takes its
    labeled term from the logged positives. Returns the trained policy and
    the per-step log, which holds plain numbers only.

    The rows trained on are held as ``kept``, their indices into ``log``:
    each batch is ``log.take`` of its own kept rows, so no copy of the kept
    rows is made. The KL reference is the batch's logged ``rho``, so
    ``logging_policy`` is only the warm start: no pass over the log re-runs it.

    When given, ``on_thresholds(step, thresholds)`` receives the
    ``fet.ThresholdSet`` each FET step used, once per step; methods without
    FET thresholds (fixmatch, ips, banditnet and ``no_fet``) never call it.
    A run that diverges (``_check_can_learn``) raises ``TrainerError``.
    """
    if not len(log):
        raise TrainerError("empty bandit log")
    if config.method == METHOD_FIXMATCH and not labeled_split:
        raise TrainerError("the fixmatch baseline needs the labeled split")
    rng = derive_rng(config.seed, "train")
    # a shuffle's first tenth is set aside unread: the batch draws, and so
    # every trained byte, follow this draw and cut (training on those rows is
    # an open ROADMAP item)
    kept = rng.permutation(len(log))[len(log) // 10:]
    policy = logging_policy.clone_trainable()
    # step(number, batch) -> (total loss, StepLog)
    if config.method in (METHOD_IPS, METHOD_BANDITNET):
        step = _crm_step(policy, config)
    else:
        step = _composite_step(policy, rng, config, labeled_split, on_thresholds)

    history: list[StepLog] = []

    def logged_step(idx):
        total, row = step(len(history) + 1, log.take(kept[idx]))
        history.append(row)
        return total

    _descend(policy, rng, len(kept), config.epochs, config, logged_step)
    _check_can_learn(policy, log.states, kept)
    return policy, history


# mix-up strengths of the composite step's weak and strong passes
ALPHA_WEAK = 0.2
ALPHA_STRONG = 2.0


def _composite_step(policy, rng, config, labeled_split, on_thresholds):
    """The banditmatch / fixmatch step: FET or fixed-threshold confidence,
    mix-up passes, and the sum of the four terms. The supervised term is the
    mixed-up expert split for fixmatch and the logged positives otherwise;
    the KL term's reference is the batch's ``rho``.

    The backward adds into the gradients in this order (float addition is
    not associative, so the order fixes the trained bits): the KL term, then
    the bandit term, into the plain pass's probabilities, and the plain pass
    into each layer's weight and bias, last layer first (``w2, b2, w1, b1,
    w0, b0`` with two hidden layers); the pseudo term into the strong pass,
    and the strong pass into the parameters; the labeled term into the weak
    pass (fixmatch: the split pass), and that pass into the parameters. A
    term or pass the step does not build is skipped.
    ``TestGradientOrder`` in ``tests/test_trainer.py`` pins it."""
    use_fet = not config.no_fet and config.method == METHOD_BANDITMATCH
    use_cbl = not config.no_cbl and config.method == METHOD_BANDITMATCH
    use_kl = not config.no_kl and config.method == METHOD_BANDITMATCH
    use_split = config.method == METHOD_FIXMATCH

    num_classes = policy.num_actions
    aug_rng = derive_rng(config.seed, "augment")
    if use_split:
        split_states = labeled_split.states
        split_targets = labeled_split.action_mask(num_classes)
    tracker = fet.FetTracker(num_classes, apply_scale=not config.no_mc_scale)

    def step(number: int, batch: BanditLog):
        states = batch.states.astype(np.float64)  # the batch's one float64 copy
        weak_states, _ = objectives.mixup_batch(states, ALPHA_WEAK, aug_rng)
        strong_states, _ = objectives.mixup_batch(states, ALPHA_STRONG, aug_rng)

        # the unaugmented pass feeds only the FET update, CBL and KL
        plain_t = policy.forward(states) if use_fet or use_cbl or use_kl else None
        weak_t = policy.forward(weak_states)
        weak_probs = weak_t.data

        logged = predicted_mask(batch.rho)
        if use_fet:
            thresholds = tracker.update(plain_t.data, logged, batch.rho, batch.delta)
            if on_thresholds is not None:
                on_thresholds(number, thresholds)
            conf = fet.confidence_mask(weak_probs, batch.delta, thresholds)
        else:
            conf = objectives.fixmatch_mask(weak_probs, batch.delta)

        if use_split:
            lab_idx = rng.integers(0, split_states.shape[0], size=config.batch_size)
            weak_split, _ = objectives.mixup_batch(
                split_states[lab_idx].astype(np.float64), ALPHA_WEAK, aug_rng
            )
            l_l = objectives.loss_labeled(
                policy.forward(weak_split), split_targets[lab_idx],
                np.ones(len(lab_idx), dtype=np.int64),
            )
        else:
            l_l = objectives.loss_labeled(weak_t, logged, batch.delta)
        # the strong pass feeds only the pseudo-label term, which is 0 with no class confident
        if conf.any():
            strong_t = policy.forward(strong_states)
            l_p = objectives.loss_pseudo(strong_t, objectives.pseudo_labels(weak_probs), conf)
        else:
            l_p = Tensor(0.0)
        if use_cbl:
            umask = objectives.unconfident_plus_mask(batch.delta, conf, logged)
            l_b = objectives.loss_bandit(plain_t, batch.rho, batch.delta, umask)
            n_unconfident = int(umask.sum())
        else:
            l_b = Tensor(0.0)
            n_unconfident = 0
        if use_kl:
            l_k = objectives.loss_kl_control(plain_t, batch.rho)
        else:
            l_k = Tensor(0.0)
        total = objectives.total_loss(l_l, l_p, l_b, l_k)
        # a tracker that was never updated (fixmatch, no_fet) answers zeros
        stats = tracker.correctness()
        return total, StepLog(
            step=number,
            loss_labeled=l_l.item(),
            loss_pseudo=l_p.item(),
            loss_bandit=l_b.item(),
            loss_kl=l_k.item(),
            total=total.item(),
            n_confident=int(conf.sum()),
            n_unconfident=n_unconfident,
            mc_pos=stats.mc_pos,
            mc_neg=stats.mc_neg,
        )

    return step


def _crm_step(policy, config):
    """The ips / banditnet step, with the optional KL control term, whose
    reference is the batch's ``rho``. The backward adds the KL term, then the
    ips / banditnet term, into the pass's probabilities, and the pass into
    each layer's weight and bias, last layer first (``TestGradientOrder``
    pins it)."""
    crm_loss = objectives.loss_ips if config.method == METHOD_IPS else objectives.loss_banditnet

    def step(number: int, batch: BanditLog):
        probs_t = policy.forward(batch.states)
        logged = predicted_mask(batch.rho)
        l_b = loss = crm_loss(probs_t, batch.rho, batch.delta, logged)
        l_k = Tensor(0.0)
        if config.add_kl:
            l_k = objectives.loss_kl_control(probs_t, batch.rho)
            loss = l_b + l_k
        return loss, StepLog(
            step=number,
            loss_labeled=0.0,
            loss_pseudo=0.0,
            loss_bandit=l_b.item(),
            loss_kl=l_k.item(),
            total=loss.item(),
            n_confident=0,
            n_unconfident=int(logged.sum()),
            mc_pos=0.0,
            mc_neg=0.0,
        )

    return step


# -- interactive evaluation ------------------------------------------------------------


@dataclass
class ExperimentReport:
    method: str
    metrics: dict[str, tuple[float, float]]  # field -> (mean, std) over runs
    n_runs: int
    n_dialogs: int
    seed: int


# the evaluation protocol's size: runs of dialogs, each run on its own goals
EVAL_DIALOGS = 500
EVAL_RUNS = 5


def _evaluate_runs(play, schema, n_dialogs, n_runs, seed, method) -> ExperimentReport:
    """The evaluation protocol: each run samples its ``n_dialogs`` goals
    from its own stream, ``play(run, goals)`` returns one EpisodeMetrics per
    goal, and the reported std is over run means, matching the
    runs-of-dialogs protocol rather than per-episode variance."""
    if n_dialogs < 1 or n_runs < 1:
        raise TrainerError("n_dialogs and n_runs must be at least 1")
    run_means: dict[str, list[float]] = {}
    for run in range(n_runs):
        rng = derive_rng(seed, "eval", run)
        goals = [sample_goal(schema, rng) for _ in range(n_dialogs)]
        for name, mean_value in compute_aggregate(play(run, goals)).items():
            run_means.setdefault(name, []).append(mean_value)
    metrics = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in run_means.items()
    }
    return ExperimentReport(method, metrics, n_runs, n_dialogs, seed)


def evaluate(
    policy: PolicyNet,
    schema: WorldSchema,
    n_dialogs: int = EVAL_DIALOGS,
    n_runs: int = EVAL_RUNS,
    seed: int = 0,
    method: str = "policy",
    on_episode=None,
) -> ExperimentReport:
    """Simulate ``n_runs`` independent sets of dialogs and aggregate.

    When given, ``on_episode(run, index, turns)`` receives each dialog's
    per-turn trace as it ends.
    """
    adapter = ActionSetPolicy(policy, schema)

    def play_one(run, index, goal):
        if on_episode is None:
            return run_episode(adapter, schema, goal)
        turns: list = []
        episode = run_episode(adapter, schema, goal, trace=turns)
        on_episode(run, index, turns)
        return episode

    return _evaluate_runs(
        lambda run, goals: [play_one(run, i, goal) for i, goal in enumerate(goals)],
        schema, n_dialogs, n_runs, seed, method,
    )


def evaluate_expert(
    schema: WorldSchema,
    n_dialogs: int = EVAL_DIALOGS,
    n_runs: int = EVAL_RUNS,
    seed: int = 0,
) -> ExperimentReport:
    """Evaluate the rule expert under the same protocol (skyline check)."""
    return _evaluate_runs(
        lambda run, goals: [run_expert_episode(schema, goal) for goal in goals],
        schema, n_dialogs, n_runs, seed, "expert",
    )


# -- grids ---------------------------------------------------------------------------


def ablation_rows(config: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The full method and its five ablations as rows of a ``run_grid`` point."""
    base = replace(config, method=METHOD_BANDITMATCH)
    return [
        (METHOD_BANDITMATCH if ablation == "full" else f"{METHOD_BANDITMATCH}-{ablation}",
         apply_ablation(base, ablation))
        for ablation in ABLATIONS
    ]


def _check_point(n: int, fraction: float) -> None:
    """A grid point needs a labeled split to train the logging policy on and
    a pool to log: raise when splitting ``n`` examples leaves either empty."""
    n_labeled = datasets.labeled_size(n, fraction)
    for size, part in ((n_labeled, "labeled split"), (n - n_labeled, "bandit pool")):
        if size < 1:
            raise TrainerError(
                f"labeled fraction {fraction} of a {n}-example corpus leaves the {part} empty"
            )


def log_point(corpus: Corpus, schema: WorldSchema, fraction: float,
              config: TrainConfig) -> tuple[Corpus, PolicyNet, BanditLog]:
    """One grid point: split the corpus with ``config.seed``, train the
    logging policy on the labeled split, and log feedback on the rest.
    Returns the labeled split, the frozen logging policy and the log."""
    split = SplitConfig(fraction, seed=config.seed)
    _check_point(len(corpus), split.labeled_fraction)
    labeled, pool = datasets.split_corpus(corpus, split)
    spec = policy_spec_for(schema, config.hidden_dims)
    logging_policy = train_logging_policy(labeled, spec, config)
    return labeled, logging_policy, datasets.log_bandit_data(logging_policy, pool)


def run_grid(points, schema: WorldSchema, n_dialogs: int,
             n_runs: int) -> list[list[ExperimentReport]]:
    """Train every row of every point on that point's log and evaluate it on
    the point's evaluation seed, so the rows of a point are paired. A point
    is ``(labeled, logging_policy, log, eval_seed, rows)`` and a row is
    ``(name, config)``; a row whose config is None evaluates the logging
    policy untrained. Every (point, row) runs in one ``map_jobs``, point
    after point; returns each point's reports in row order."""
    def run_job(job):
        (labeled, logging_policy, log, eval_seed, _), (name, cfg) = job
        policy = logging_policy if cfg is None else train_on_log(
            logging_policy, log, cfg, labeled_split=labeled)[0]
        return evaluate(policy, schema, n_dialogs, n_runs, eval_seed, method=name)

    reports = iter(map_jobs(run_job, [(point, row) for point in points for row in point[-1]]))
    return [[next(reports) for _ in rows] for *_, rows in points]


def run_sl_sweep(corpus: Corpus, schema: WorldSchema, config: TrainConfig,
                 percentages=DEFAULT_SWEEP_PERCENTAGES, methods=FINETUNE_METHODS,
                 n_dialogs: int = EVAL_DIALOGS, n_runs: int = EVAL_RUNS,
                 ) -> dict[str, list[tuple[int, ExperimentReport]]]:
    """Per percentage point, a grid point seeded from the point: every method
    trained on its log, then its logging policy, each evaluated. The rows are
    built and every point's split checked first, so an unknown method or a
    point with an empty side fails before any training. Every point is logged
    in one ``map_jobs``, then one ``run_grid`` runs every row."""
    rows = [(method, replace(config, method=method)) for method in methods]
    for p in percentages:
        _check_point(len(corpus), p / 100.0)
    seeds = [int(derive_rng(config.seed, "sweep", p).integers(2**31)) for p in percentages]
    logged = map_jobs(lambda ps: log_point(corpus, schema, ps[0] / 100.0,
                                           replace(config, seed=ps[1])), zip(percentages, seeds))
    points = [(*point, seed, [(n, replace(c, seed=seed)) for n, c in rows] + [("logging", None)])
              for point, seed in zip(logged, seeds)]
    grid = run_grid(points, schema, n_dialogs, n_runs)
    return {name: [(p, reports[i]) for p, reports in zip(percentages, grid)]
            for i, name in enumerate((*methods, "logging"))}


# -- one process pool ------------------------------------------------------------------

# the fn and items a forked worker maps, set only in workers: fork hands
# them over without pickling, so fn may be a closure
_WORKER: dict = {}


def _map_worker(index: int):
    return _WORKER["fn"](_WORKER["items"][index])


def map_jobs(fn, items) -> list:
    """``[fn(item) for item in items]`` over a fork pool of one worker per
    usable CPU and item. Results and the first failure come in input order;
    a killed worker raises ``BrokenProcessPool``. The items already handed to
    workers when an item fails (up to workers + 1) still run to the end
    before the failure is raised; the rest are cancelled. That run-on stays:
    ``ProcessPoolExecutor`` cancels only items no worker has taken, and
    stopping a running worker needs the pool's private process table.
    Inline when fewer than two workers would run, where fork is unavailable,
    and in another map's worker."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(items), cpus or 1)
    if workers >= 2 and not _WORKER:
        # the pool's modules load here, so a run that never forks never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     _WORKER.update, ({"fn": fn, "items": items},)) as pool:
                return list(pool.map(_map_worker, range(len(items))))
    return [fn(item) for item in items]

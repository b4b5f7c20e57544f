"""Synthetic multi-domain task-oriented dialog environment.

A deterministic, desk-scale stand-in for a corpus + user-simulator stack:
goal sampler, agenda-based user simulator, rule-based expert policy, binary
state encoder, and interactive metrics (Turn / Match / Inform Recall /
Inform F1 / Success).

Action vocabulary. An atomic action is a (domain, act_type, slot) triple.
For each domain the agent may ``inform`` any slot, ``request`` any
constraint (informable) slot, and emit slotless ``offer`` / ``book`` /
``nooffer``; a single global ``bye`` closes the dialog. The triple <->
index mapping is fixed by the schema and stable for the life of a run.

Agent turns. One agent turn is a list of indices into ``schema.actions``
without repeats, in application order: the order of the ``AtomicAction``
fields (domain, act type, slot), which ``ACTION_ORDER`` names. The schema
precomputes that order as an index array (``application_order``), so a
predicted mask becomes a turn with one gather, and the agent-turn and
user-turn updates walk the list as given.

Episode flow: the user opens (``open_dialog``), then agent and user
alternate (``play_turn``); policy and expert episodes share both. The episode
ends when the user has everything it needs (it says bye), when the agent
says bye, or after ``MAX_TURNS`` agent turns.

Lookup tables. ``WorldSchema`` builds its tables once, at construction,
one ``_DomainTables`` per domain behind a name map: the state layout (the
domain's feature offsets and a slot -> position map per flag block, plus
the position each possible last-turn user act sets) and per informable
slot a value -> entity bitmask. The encoder writes only the features the context
holds, and entity matching is an AND of bitmasks (``_constraint_mask``),
shared by the database lookup and the Match metric.
The same tables hold the action index of every act the expert can emit.
Per action index the schema also lists what a turn does with it: the
``(domain, slot)`` a request asks the user for (``_asks``, read by the user
turn) and the effect table, the ``(kind, domain, slot)`` of each inform, offer
and book, None for an action that changes nothing (``_effects``, read by the
agent-turn update). The tables are not rebuilt, so a schema must not be
mutated after construction; build a new one instead.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

INFORM = "inform"
REQUEST = "request"
OFFER = "offer"
BOOK = "book"
NOOFFER = "nooffer"
BYE = "bye"

GENERAL = "general"
DONTCARE = "dontcare"

SCHEMA_VERSION = "v1"

TURN_BUCKETS = 6  # one-hot over turn counts 0..4 and 5+
MATCH_BUCKETS = 4  # 0, 1, 2-3, >=4 database matches
MAX_TURNS = 20  # agent turns after which an episode ends


class WorldError(Exception):
    pass


class WorldVersionError(WorldError):
    """A world file names a schema version this reader does not support."""


@dataclass(frozen=True, order=True)
class AtomicAction:
    domain: str
    act_type: str
    slot: str | None = None

    def label(self) -> str:
        return f"{self.domain}-{self.act_type}-{self.slot or 'none'}"


# the application order of an agent turn: the field order of AtomicAction,
# which its order=True comparison follows
ACTION_ORDER = operator.attrgetter("domain", "act_type", "slot")


@dataclass(frozen=True)
class UserAct:
    """User-side dialog act; informs carry the uttered value."""

    domain: str
    act_type: str  # inform | request | book | bye
    slot: str | None = None
    value: str | None = None


@dataclass
class DomainSchema:
    name: str
    informable: dict[str, list[str]]  # slot -> allowed values
    requestable: list[str]
    entities: list[dict[str, str]]  # each maps every slot of the domain

    def all_slots(self) -> list[str]:
        return list(self.informable) + list(self.requestable)


class _DomainTables:
    """Feature positions and entity bitmasks of one domain.

    ``expressed`` / ``pending`` / ``informed`` map each slot to its absolute
    position in the state vector's three flag blocks; ``match`` is the first
    match-count bucket and ``flags`` the booking-requested flag (booked and
    active follow it). ``informable_masks[slot][value]`` has bit ``i`` set
    when entity ``i`` holds ``value``, for each constraint slot.
    ``inform_action`` / ``request_action`` map each slot to the index of its
    inform / request action, and ``offer_action``, ``book_action`` and
    ``nooffer_action`` are the slotless actions' indices.
    """

    __slots__ = ("dom", "expressed", "pending", "informed", "match", "flags",
                 "all_entities", "informable_masks", "inform_action",
                 "request_action", "offer_action", "book_action", "nooffer_action")

    def __init__(self, dom: DomainSchema, offset: int, index: dict[AtomicAction, int]):
        slots = dom.all_slots()
        n_all = len(slots)
        self.dom = dom
        self.expressed = {s: offset + i for i, s in enumerate(slots)}
        self.pending = {s: offset + n_all + i for i, s in enumerate(slots)}
        self.informed = {s: offset + 2 * n_all + i for i, s in enumerate(slots)}
        self.match = offset + 3 * n_all
        self.flags = self.match + MATCH_BUCKETS
        self.all_entities = (1 << len(dom.entities)) - 1
        self.informable_masks: dict[str, dict[str, int]] = {s: {} for s in dom.informable}
        for i, ent in enumerate(dom.entities):
            for slot, masks in self.informable_masks.items():
                masks[ent[slot]] = masks.get(ent[slot], 0) | (1 << i)
        self.inform_action = {s: index[AtomicAction(dom.name, INFORM, s)] for s in slots}
        self.request_action = {
            s: index[AtomicAction(dom.name, REQUEST, s)] for s in dom.informable
        }
        self.offer_action = index[AtomicAction(dom.name, OFFER)]
        self.book_action = index[AtomicAction(dom.name, BOOK)]
        self.nooffer_action = index[AtomicAction(dom.name, NOOFFER)]


def _constraint_mask(tables: _DomainTables, constraints: dict[str, str]) -> int:
    """Bitmask of the entities that agree with the slot -> value map
    ``constraints`` on every informable slot it names; dontcare and other
    slots constrain nothing. A goal's constraints copy an entity's values,
    which are never dontcare, so every one of them counts."""
    informable = tables.informable_masks
    mask = tables.all_entities
    for slot, value in constraints.items():
        if value != DONTCARE and slot in informable:
            mask &= informable[slot].get(value, 0)
    return mask


def _mask_indices(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


@dataclass
class WorldSchema:
    domains: list[DomainSchema]

    def __post_init__(self):
        # the one check of a world, before any value is hashed, sorted or indexed.
        # sample_goal draws a domain, an entity and a requestable slot, so none
        # of these lists may be empty; a goal copies an entity's values, so it
        # needs no check once drawn
        if not isinstance(self.domains, list) or not self.domains:
            raise WorldError("domains must be a non-empty list")
        for dom in self.domains:
            where = f"domain {dom.name!r}"
            informable, requestable, entities = dom.informable, dom.requestable, dom.entities
            if not (isinstance(informable, dict)
                    and all(isinstance(v, list) for v in informable.values())):
                raise WorldError(f"{where}: informable must be an object of lists")
            if not isinstance(requestable, list) or not requestable:
                raise WorldError(f"{where}: requestable must be a non-empty list")
            if not (isinstance(entities, list) and entities
                    and all(isinstance(e, dict) for e in entities)):
                raise WorldError(f"{where}: entities must be a non-empty list of objects")
            slots = dom.all_slots()
            values = [v for vs in informable.values() for v in vs]
            values += [v for ent in entities for v in ent.values()]
            bad = [x for x in (dom.name, *slots, *values) if not isinstance(x, str)]
            if bad:
                raise WorldError(f"{where}: names, slots and values must be strings: {bad[0]!r}")
            if len(set(slots)) != len(slots):
                raise WorldError(f"{where} lists a slot twice: {slots}")
            # the user informs dontcare to lift a constraint, so no slot may hold it
            for slot, listed in informable.items():
                if DONTCARE in listed:
                    raise WorldError(f"{where}: informable slot {slot!r} lists the reserved "
                                     f"value {DONTCARE!r}")
            for ent in entities:
                missing = [s for s in slots if s not in ent]
                if missing:
                    raise WorldError(f"entity in {where} missing slots {missing}")
                for slot, listed in informable.items():
                    if ent[slot] not in listed:
                        raise WorldError(f"{where}: entity value {ent[slot]!r} of slot {slot!r} "
                                         f"is not in its informable list {listed}")
        names = [dom.name for dom in self.domains]
        if len(set(names)) != len(names):
            raise WorldError(f"duplicate domain names in {names}")
        self._actions = self._build_vocab()
        self._index = {a: i for i, a in enumerate(self._actions)}
        self._build_tables()

    def _build_tables(self) -> None:
        self._tables: list[_DomainTables] = []
        actions = self._actions
        order = sorted(range(len(actions)), key=lambda i: ACTION_ORDER(actions[i]))
        self._order = np.array(order, dtype=np.intp)
        self._order.flags.writeable = False
        # application rank of each action index, to put a built turn in order
        self._rank = [0] * len(actions)
        for rank, i in enumerate(order):
            self._rank[i] = rank
        # the (domain, slot) each action index asks the user for; None when
        # the action is not a request
        self._asks = [(a.domain, a.slot) if a.act_type == REQUEST else None for a in actions]
        # the (kind, domain, slot) each action index applies to the context;
        # None for the actions that change nothing (request, nooffer, bye)
        self._effects = [(a.act_type, a.domain, a.slot) if a.act_type in (INFORM, OFFER, BOOK)
                         else None for a in actions]
        self._bye_action = self._index[AtomicAction(GENERAL, BYE)]
        # (domain, act type, slot) of a last-turn user act -> feature position;
        # book acts are keyed with slot None
        self._last_act_pos: dict[tuple[str, str, str | None], int] = {}
        offset = 0
        for dom in self.domains:
            tables = _DomainTables(dom, offset, self._index)
            self._tables.append(tables)
            pos = tables.flags + 3
            for slot in dom.informable:
                self._last_act_pos[(dom.name, INFORM, slot)] = pos
                pos += 1
            for slot in dom.requestable:
                self._last_act_pos[(dom.name, REQUEST, slot)] = pos
                pos += 1
            self._last_act_pos[(dom.name, BOOK, None)] = pos
            offset = pos + 1
        self._tables_by_name = {t.dom.name: t for t in self._tables}
        self._bye_pos = offset
        self._turn_pos = offset + 1
        self._state_dim = offset + 1 + TURN_BUCKETS

    def _tables_for(self, name: str) -> _DomainTables:
        try:
            return self._tables_by_name[name]
        except KeyError:
            raise WorldError(f"unknown domain {name!r}") from None

    def _build_vocab(self) -> list[AtomicAction]:
        actions: list[AtomicAction] = []
        for dom in self.domains:
            for slot in dom.all_slots():
                actions.append(AtomicAction(dom.name, INFORM, slot))
            for slot in dom.informable:
                actions.append(AtomicAction(dom.name, REQUEST, slot))
            actions.append(AtomicAction(dom.name, OFFER))
            actions.append(AtomicAction(dom.name, BOOK))
            actions.append(AtomicAction(dom.name, NOOFFER))
        actions.append(AtomicAction(GENERAL, BYE))
        return actions

    @property
    def actions(self) -> list[AtomicAction]:
        return self._actions

    @property
    def num_actions(self) -> int:
        return len(self._actions)

    @property
    def application_order(self) -> np.ndarray:
        """Every action index, in the order an agent turn lists them (read-only)."""
        return self._order

    def domain(self, name: str) -> DomainSchema:
        return self._tables_for(name).dom

    @property
    def state_dim(self) -> int:
        # per domain: expressed / pending / informed flags, match bucket,
        # booking requested+done, active flag, last-turn user
        # inform/request/book; then a user-bye flag and the turn bucket
        return self._state_dim

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The world file's payload, in fresh lists and dicts the schema does not hold."""
        return {
            "schema_version": SCHEMA_VERSION,
            "domains": [
                {
                    "name": d.name,
                    "informable": {slot: list(values) for slot, values in d.informable.items()},
                    "requestable": list(d.requestable),
                    "entities": [dict(e) for e in d.entities],
                }
                for d in self.domains
            ],
        }

    def save(self, path) -> None:
        # insertion order of the slot maps is part of the schema (it fixes
        # the action vocabulary order), so keys are not sorted
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, payload: dict) -> "WorldSchema":
        """The schema of a parsed world file. It keeps the payload's lists and
        objects as they are, for ``__post_init__`` to check: do not edit them."""
        if not isinstance(payload, dict) or "schema_version" not in payload:
            raise WorldError("not a world schema (no schema_version)")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise WorldVersionError(
                f"world schema version {version!r} unsupported (expected {SCHEMA_VERSION!r})"
            )
        try:
            domains = payload["domains"]
            if isinstance(domains, list):
                domains = [DomainSchema(d["name"], d["informable"], d["requestable"],
                                        d["entities"]) for d in domains]
        except KeyError as err:
            raise WorldError(f"missing field {err}") from err
        except TypeError as err:
            raise WorldError(f"a domain is not an object ({err})") from err
        return cls(domains)

    @classmethod
    def load(cls, path) -> "WorldSchema":
        """Read a world file; every failure is a WorldError naming the path."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as err:
                raise WorldError(f"{path}: malformed JSON ({err})") from err
        try:
            return cls.from_dict(payload)
        except WorldError as err:
            raise type(err)(f"{path}: {err}") from err


def default_schema() -> WorldSchema:
    """Four domains, 4 constraint + 4 request slots each, 10 entities each.

    Entity attributes are drawn from skewed, domain-specific value
    distributions (fixed internal seed, so the schema is a constant).
    The clustering makes the most informative constraint question depend
    on which entities remain, not merely on how many, which keeps several
    system responses plausible for one encoded state.
    """
    names = ("hotel", "restaurant", "attraction", "train")
    informable_slots = ("area", "price", "kind", "rating")
    requestable_slots = ("phone", "address", "postcode", "hours")
    values = {
        "area": ["north", "south", "east"],
        "price": ["cheap", "moderate", "expensive"],
        "kind": ["classic", "modern", "family"],
        "rating": ["low", "medium", "high"],
    }
    rng = np.random.default_rng(2024)
    domains = []
    for name in names:
        informable = {s: list(values[s]) for s in informable_slots}
        entities = []
        for e_idx in range(10):
            ent = {}
            for slot in informable_slots:
                w = rng.permutation([1.0, 2.0, 4.0])
                ent[slot] = values[slot][int(rng.choice(3, p=w / w.sum()))]
            for slot in requestable_slots:
                ent[slot] = f"{name}_{slot}_{e_idx}"
            entities.append(ent)
        domains.append(DomainSchema(name, informable, list(requestable_slots), entities))
    return WorldSchema(domains)


def tiny_schema() -> WorldSchema:
    """One domain, two entities; small enough to enumerate every goal."""
    dom = DomainSchema(
        name="hotel",
        informable={"area": ["north", "south"]},
        requestable=["phone", "address"],
        entities=[
            {"area": "north", "phone": "hotel_phone_0", "address": "hotel_address_0"},
            {"area": "south", "phone": "hotel_phone_1", "address": "hotel_address_1"},
        ],
    )
    return WorldSchema([dom])


# -- goals --------------------------------------------------------------------

# Sampling weights, documented for the statistical coverage check:
# number of active domains ~ {1: 0.3, 2: 0.35, 3: 0.35} (truncated to the
# schema size), domains chosen uniformly without replacement; per active
# domain up to 3 constraints and up to 3 requested slots.
ACTIVE_DOMAIN_WEIGHTS = (0.3, 0.35, 0.35)
CONSTRAINT_COUNT_WEIGHTS = (0.1, 0.25, 0.35, 0.3)  # 0..3 constraints
REQUEST_COUNT_WEIGHTS = (0.0, 0.15, 0.3, 0.55)  # 0..3 requests per domain
BOOKING_PROB = 0.8


@dataclass
class UserGoal:
    constraints: dict[str, dict[str, str]]
    requests: dict[str, list[str]]
    booking: dict[str, bool]

    @property
    def domains(self) -> list[str]:
        return list(self.constraints)

    def total_requests(self) -> int:
        return sum(len(r) for r in self.requests.values())


@lru_cache(maxsize=None)
def _cdf(weights: tuple[float, ...], n: int) -> tuple[float, ...]:
    """The CDF ``rng.choice(n, p=...)`` searches for the first ``n`` weights,
    normalised: built as numpy builds it (cumsum, then divide by the last
    entry), so ``bisect_right(cdf, rng.random())`` draws the same index from
    the same generator stream."""
    w = np.array(weights[:n], dtype=float)
    w /= w.sum()
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def _weighted_count(rng: np.random.Generator, weights, limit: int) -> int:
    return bisect_right(_cdf(weights, limit + 1), rng.random())


def sample_goal(schema: WorldSchema, rng: np.random.Generator) -> UserGoal:
    """Draw a satisfiable goal: constraints are copied from a database entity."""
    n_dom = len(schema.domains)
    n_active = 1 + _weighted_count(rng, ACTIVE_DOMAIN_WEIGHTS, n_dom - 1)
    picked = rng.choice(n_dom, size=n_active, replace=False)
    active = [schema.domains[i] for i in sorted(picked)]

    constraints: dict[str, dict[str, str]] = {}
    requests: dict[str, list[str]] = {}
    booking: dict[str, bool] = {}
    for dom in active:
        seed_entity = dom.entities[int(rng.integers(len(dom.entities)))]
        inf_slots = list(dom.informable)
        k_c = _weighted_count(rng, CONSTRAINT_COUNT_WEIGHTS, len(inf_slots))
        chosen_c = sorted(rng.choice(len(inf_slots), size=k_c, replace=False).tolist())
        constraints[dom.name] = {inf_slots[i]: seed_entity[inf_slots[i]] for i in chosen_c}
        req_slots = list(dom.requestable)
        k_r = _weighted_count(rng, REQUEST_COUNT_WEIGHTS, len(req_slots))
        chosen_r = sorted(rng.choice(len(req_slots), size=k_r, replace=False).tolist())
        requests[dom.name] = [req_slots[i] for i in chosen_r]
        booking[dom.name] = bool(rng.random() < BOOKING_PROB)
    if all(len(r) == 0 for r in requests.values()):
        # every goal must want at least one piece of information
        dom = active[0]
        requests[dom.name] = [dom.requestable[int(rng.integers(len(dom.requestable)))]]
    return UserGoal(constraints, requests, booking)


# -- dialog context (system view) ----------------------------------------------


@dataclass
class DomainContext:
    expressed: dict[str, str] = field(default_factory=dict)  # includes dontcare
    pending_requests: list[str] = field(default_factory=list)
    informed: set[str] = field(default_factory=set)
    booking_requested: bool = False
    booked: bool = False
    selected_entity: int | None = None  # index of last offered/booked entity
    active: bool = False


@dataclass
class DialogContext:
    schema: WorldSchema
    domains: dict[str, DomainContext] = field(init=False)
    last_user_acts: list[UserAct] = field(default_factory=list)
    turn: int = 0
    user_said_bye: bool = False
    useful_informs: int = 0
    total_informs: int = 0
    answered: set[tuple[str, str]] = field(default_factory=set)

    def __post_init__(self):
        self.domains = {d.name: DomainContext() for d in self.schema.domains}


def db_matches(schema: WorldSchema, ctx: DialogContext, domain: str) -> list[int]:
    """Entity indices consistent with the constraints expressed so far."""
    tables = schema._tables_for(domain)
    return _mask_indices(_constraint_mask(tables, ctx.domains[domain].expressed))


def apply_user_acts(ctx: DialogContext, acts: list[UserAct]) -> None:
    domains = ctx.domains
    for act in acts:
        kind = act.act_type
        if kind == BYE:
            ctx.user_said_bye = True
            continue
        dctx = domains[act.domain]
        dctx.active = True
        if kind == INFORM:
            dctx.expressed[act.slot] = act.value
        elif kind == REQUEST:
            if act.slot not in dctx.pending_requests:
                dctx.pending_requests.append(act.slot)
        elif kind == BOOK:
            dctx.booking_requested = True
    ctx.last_user_acts = list(acts)


def apply_agent_actions(ctx: DialogContext, actions: list[int]) -> None:
    """Update the context with one agent turn (action indices in application
    order, applied as listed).

    Requests and nooffer change nothing here; the user answers requests.
    Agent bye is inert for episode control (the user simulator decides
    termination, as in interactive corpus evaluators); it simply produces
    no state change.
    """
    schema = ctx.schema
    domains = ctx.domains
    informs = 0
    for kind, domain, slot in filter(None, map(schema._effects.__getitem__, actions)):
        dctx = domains[domain]
        if kind == INFORM:
            informs += 1
            if slot in dctx.pending_requests:
                ctx.useful_informs += 1
                dctx.pending_requests.remove(slot)
                ctx.answered.add((domain, slot))
            dctx.informed.add(slot)
        # a completed booking is binding; later offers/books cannot amend
        # the committed entity
        elif not dctx.booked:
            matches = db_matches(schema, ctx, domain)
            if matches:
                dctx.selected_entity = matches[0]
            if kind == BOOK:
                dctx.booked = True
    ctx.total_informs += informs


# -- state encoding -------------------------------------------------------------


def encode_state(schema: WorldSchema, ctx: DialogContext) -> np.ndarray:
    """Fixed-dimension binary feature vector for the current context.

    Layout per domain (canonical order): expressed flag per slot, pending
    request flag per slot, informed flag per slot, match-count bucket
    one-hot (0 / 1 / 2-3 / >=4), booking requested, booked, active flag,
    last-turn user informs (constraint slots), last-turn user requests
    (request slots), last-turn book flag. Then a user-bye flag and a
    turn-count bucket one-hot (0..4, 5+).

    Only the features the context holds are walked, and each is written at
    its precomputed position into a zeroed ``bytearray``, which is returned
    as a ``uint8`` array over the same bytes (``np.frombuffer``): one byte
    per entry, each a plain byte store rather than a numpy item assignment.
    The network input converts a batch to float64.
    """
    buf = bytearray(schema.state_dim)
    domains = ctx.domains
    for tables in schema._tables:
        dctx = domains[tables.dom.name]
        for pos, present in ((tables.expressed, dctx.expressed),
                             (tables.pending, dctx.pending_requests),
                             (tables.informed, dctx.informed)):
            for s in present:
                if s in pos:
                    buf[pos[s]] = 1
        if dctx.active:
            n = _constraint_mask(tables, dctx.expressed).bit_count()
            buf[tables.match + (0 if n == 0 else 1 if n == 1 else 2 if n <= 3 else 3)] = 1
            buf[tables.flags + 2] = 1
        if dctx.booking_requested:
            buf[tables.flags] = 1
        if dctx.booked:
            buf[tables.flags + 1] = 1
    get = schema._last_act_pos.get
    for a in ctx.last_user_acts:
        i = get((a.domain, a.act_type, None if a.act_type == BOOK else a.slot))
        if i is not None:
            buf[i] = 1
    if ctx.user_said_bye:
        buf[schema._bye_pos] = 1
    buf[schema._turn_pos + min(ctx.turn, TURN_BUCKETS - 1)] = 1
    return np.frombuffer(buf, np.uint8)


# -- expert policy ---------------------------------------------------------------


def _most_discriminative_slot(dom: DomainSchema, matches: list[int], askable: list[str]) -> str:
    """The constraint slot whose values best split the matching entities.

    Asking the highest-entropy slot narrows the database fastest. The
    choice depends on which entities remain, not just on how many, so two
    contexts with identical encoded features can warrant different
    requests; ties fall back to canonical slot order.
    """
    best_slot = askable[0]
    best_score = -1.0
    for slot in askable:
        counts: dict[str, int] = {}
        for idx in matches:
            v = dom.entities[idx][slot]
            counts[v] = counts.get(v, 0) + 1
        total = float(len(matches))
        score = -sum((c / total) * np.log(c / total) for c in counts.values())
        if score > best_score + 1e-12:
            best_score = score
            best_slot = slot
    return best_slot


def expert_respond(schema: WorldSchema, ctx: DialogContext) -> list[int]:
    """Deterministic rule policy used as ground truth.

    Per active domain: answer every pending request; while several
    database entities match, request the one missing constraint slot that
    best discriminates among them; offer+book once the booking is
    requested and the match is pinned down (or no constraint slots are
    left to ask); say nooffer when nothing matches. Falls back to
    (re)offering the current match so a turn is never empty, and closes
    with bye after the user does. The turn is a list of action indices in
    application order.
    """
    if ctx.user_said_bye:
        return [schema._bye_action]
    actions: list[int] = []
    for tables in schema._tables:
        dom = tables.dom
        dctx = ctx.domains[dom.name]
        if not dctx.active:
            continue
        matches = db_matches(schema, ctx, dom.name)
        if not matches:
            actions.append(tables.nooffer_action)
            continue
        # pending requests hold no repeats, so neither does the turn
        domain_acts = [tables.inform_action[slot] for slot in dctx.pending_requests]
        askable = [s for s in dom.informable if s not in dctx.expressed]
        if len(matches) > 1 and askable:
            slot = _most_discriminative_slot(dom, matches, askable)
            domain_acts.append(tables.request_action[slot])
        if dctx.booking_requested and not dctx.booked and (len(matches) == 1 or not askable):
            domain_acts += (tables.offer_action, tables.book_action)
        if not domain_acts:
            domain_acts.append(tables.offer_action)
        actions += domain_acts
    if not actions:
        return [schema._bye_action]
    actions.sort(key=schema._rank.__getitem__)
    return actions


# -- agenda-based user ------------------------------------------------------------


MAX_INITIATIVE = 3  # agenda items the user utters per turn


@dataclass
class UserState:
    """The user's side of one dialog: its goal and the agenda of acts still
    to utter.

    ``UserAct`` is frozen, so one object per act serves the whole dialog: the
    agenda refill re-queues the request and book acts built here, listed
    once each in goal order in ``needs`` with the key that tells when the
    need is met (the ``(domain, slot)`` of a request, the domain of a
    booking), and ``answers`` keeps the inform that answers each
    ``(domain, slot)`` the agent asks for, built on first ask.
    """

    goal: UserGoal
    agenda: list[UserAct] = field(init=False)
    needs: list[tuple[tuple[str, str] | str, UserAct]] = field(
        init=False, repr=False, compare=False)
    answers: dict[tuple[str, str], UserAct] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        goal = self.goal
        agenda: list[UserAct] = []
        needs: dict[tuple[str, str] | str, UserAct] = {}
        for name in goal.domains:
            for slot in sorted(goal.constraints[name]):
                agenda.append(UserAct(name, INFORM, slot, goal.constraints[name][slot]))
            for slot in goal.requests[name]:
                agenda.append(needs.setdefault((name, slot), UserAct(name, REQUEST, slot)))
            if goal.booking[name]:
                agenda.append(needs.setdefault(name, UserAct(name, BOOK)))
        self.agenda = agenda
        self.needs = list(needs.items())


def _unmet_needs(ustate: UserState, ctx: DialogContext) -> list[UserAct]:
    """The goal's request and book acts not yet met, in goal order. Every need
    starts on the agenda and only informs are filtered out of it, so once the
    agenda runs dry these are the needs the user uttered and has not seen met."""
    answered, domains = ctx.answered, ctx.domains
    return [act for key, act in ustate.needs
            if (not domains[key].booked if act.act_type == BOOK else key not in answered)]


def user_step(
    ustate: UserState, ctx: DialogContext, agent_actions: list[int]
) -> tuple[list[UserAct], bool]:
    """One user turn: answer agent requests, then pop agenda items.

    ``agent_actions`` is the agent turn (action indices in application
    order); its requests are answered in that order. Returns the uttered
    acts and a terminated flag. When the agenda runs dry, the user re-queues
    its unmet needs, or closes with bye once every requested slot is
    answered and every required booking is done.
    """
    acts: list[UserAct] = []
    goal = ustate.goal
    requests = list(filter(None, map(ctx.schema._asks.__getitem__, agent_actions)))
    answers = ustate.answers
    for ask in requests:
        answer = answers.get(ask)
        if answer is None:
            domain, slot = ask
            value = goal.constraints.get(domain, {}).get(slot, DONTCARE)
            answer = answers[ask] = UserAct(domain, INFORM, slot, value)
        acts.append(answer)
    if requests:
        # the agent asked for these, so their queued informs are now moot
        asked = set(requests)
        ustate.agenda = [
            a for a in ustate.agenda if not (a.act_type == INFORM and (a.domain, a.slot) in asked)
        ]
    if not ustate.agenda:
        ustate.agenda = _unmet_needs(ustate, ctx)  # retry when the agent stalls
        if not ustate.agenda:
            acts.append(UserAct(GENERAL, BYE))
            return acts, True
    budget = MAX_INITIATIVE
    while ustate.agenda and budget > 0:
        act = ustate.agenda.pop(0)
        if act.act_type == REQUEST and (act.domain, act.slot) in ctx.answered:
            continue  # answered proactively while queued
        if act.act_type == BOOK and ctx.domains[act.domain].booked:
            continue
        acts.append(act)
        budget -= 1
    return acts, False


# -- episodes and metrics ----------------------------------------------------------


@dataclass
class EpisodeMetrics:
    turns: int
    match: int
    inform_recall: float
    inform_precision: float
    inform_f1: float
    success: int


def _compute_match(ctx: DialogContext, goal: UserGoal) -> int:
    schema = ctx.schema
    for name in goal.domains:
        if not goal.booking[name]:
            continue
        dctx = ctx.domains[name]
        if dctx.selected_entity is None or not dctx.booked:
            return 0
        agreeing = _constraint_mask(schema._tables_for(name), goal.constraints[name])
        if not agreeing >> dctx.selected_entity & 1:
            return 0
    return 1


def finish_metrics(ctx: DialogContext, goal: UserGoal, turns: int) -> EpisodeMetrics:
    total_requests = goal.total_requests()
    answered = sum(
        1
        for name in goal.domains
        for slot in goal.requests[name]
        if (name, slot) in ctx.answered
    )
    recall = answered / total_requests if total_requests else 1.0
    precision = ctx.useful_informs / ctx.total_informs if ctx.total_informs else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    match = _compute_match(ctx, goal)
    success = 1 if recall == 1.0 and match == 1 else 0
    return EpisodeMetrics(turns, match, recall, precision, f1, success)


def open_dialog(
    schema: WorldSchema, goal: UserGoal
) -> tuple[DialogContext, UserState, list[UserAct]]:
    """A fresh dialog after the user's opening turn: its reply to an empty
    agent turn, which never ends a dialog whose goal requests a slot."""
    ctx = DialogContext(schema)
    ustate = UserState(goal)
    user_acts, _ = user_step(ustate, ctx, [])
    apply_user_acts(ctx, user_acts)
    return ctx, ustate, user_acts


def play_turn(
    ctx: DialogContext, ustate: UserState, actions: list[int]
) -> tuple[list[UserAct], bool]:
    """Apply an agent turn and the user's reply, and count the turn. Returns
    the user's acts and whether the user ended the dialog."""
    apply_agent_actions(ctx, actions)
    user_acts, terminated = user_step(ustate, ctx, actions)
    apply_user_acts(ctx, user_acts)
    ctx.turn += 1
    return user_acts, terminated


def run_episode(
    policy,
    schema: WorldSchema,
    goal: UserGoal,
    trace: list | None = None,
) -> EpisodeMetrics:
    """Roll one dialog between ``policy`` and the agenda user.

    ``policy.act(state)`` maps a state vector to one agent turn: a list of
    indices into ``schema.actions`` without repeats, in application order.
    The turns are not checked. ``trace`` rows list the agent's labels sorted.
    """
    ctx, ustate, user_acts = open_dialog(schema, goal)
    while ctx.turn < MAX_TURNS:
        actions = policy.act(encode_state(schema, ctx))
        if trace is not None:
            trace.append(
                {
                    "turn": ctx.turn + 1,
                    "user": [f"{a.domain}-{a.act_type}-{a.slot or 'none'}" for a in user_acts],
                    "agent": sorted(schema.actions[i].label() for i in actions),
                }
            )
        user_acts, terminated = play_turn(ctx, ustate, actions)
        if terminated:
            break
    return finish_metrics(ctx, goal, ctx.turn)


def run_expert_episode(schema: WorldSchema, goal: UserGoal, collect=None) -> EpisodeMetrics:
    """Like run_episode but drives the rule expert on the live context.

    When ``collect`` is a list, (state, agent turn) pairs are appended for
    corpus generation; states are encoded only then.
    """
    ctx, ustate, _ = open_dialog(schema, goal)
    while ctx.turn < MAX_TURNS:
        actions = expert_respond(schema, ctx)
        if collect is not None:
            collect.append((encode_state(schema, ctx), actions))
        if play_turn(ctx, ustate, actions)[1]:
            if collect is not None:
                # one closing expert turn, counted, so corpora contain bye examples
                collect.append((encode_state(schema, ctx), expert_respond(schema, ctx)))
                return finish_metrics(ctx, goal, ctx.turn + 1)
            break
    return finish_metrics(ctx, goal, ctx.turn)


# -- aggregation --------------------------------------------------------------------

METRIC_FIELDS = ("turns", "match", "inform_recall", "inform_f1", "success")


def compute_aggregate(episodes: list[EpisodeMetrics]) -> dict[str, float]:
    """The mean of each metric; Success in percent."""
    if not episodes:
        raise WorldError("compute_aggregate needs at least one episode")
    out: dict[str, float] = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(e, name) for e in episodes], dtype=np.float64)
        if name == "success":
            values = values * 100.0
        out[name] = float(values.mean())
    return out


def format_metric(mean_value: float, std_value: float, digits: int = 2) -> str:
    return f"{mean_value:.{digits}f} ± {std_value:.{digits}f}"

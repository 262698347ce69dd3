"""Key-distribution protocol over shared entangled pairs.

Each round uses two entangled pairs with labels (b, c) and (b, c - delta).
Alice measures the first particle of both pairs in one quadratic basis b1
of her choice, recording c1 and c1'.  Bob's particles transit a quantum
channel where an intercept-resend eavesdropper may measure and forward
them.  After transit the round is assigned message or check duty, so the
eavesdropper cannot condition on it:

* message round: Alice announces lambda (the matching value c1' - c1 +
  delta for bit 1, any other field value for bit 0); Bob shifts his
  second particle by lambda and compares his two states, either through
  an exact overlap oracle or through repeated swap tests.
* check round: Alice discloses (b2, expected c2) for the first particle;
  Bob measures it projectively in basis b2 and records pass/fail.

Sessions are deterministic functions of their seed, drawing their
variates from stream.Draws; transcripts persist
as JSON Lines plus a single summary document.  session_records yields the
rounds one at a time, RoundRecord.to_jsonl writes a record's line directly,
and summarize counts in one pass, so a session holds one record at a time.

run_round plays a round on MUB labels alone: every state is a pair
(basis index, c index), basis index d being the computational basis, and
the outcome of measuring one in a basis is certain in its own basis and
uniform in any other (the bases are mutually unbiased).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping, Set
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field as dc_field, fields
from functools import cached_property
from numbers import Real

from .gf import FieldSpec, chunkwise
from .stream import Draws

_EVE_KINDS = ("none", "intercept_resend")
_EVE_PICKERS = ("fixed", "uniform_quadratic", "uniform_all")
_MODES = ("oracle", "swap")

# JSON kind of each key of a session config document (float: any number).
_CONFIG_KINDS = {"field": dict, "rounds": int, "check_fraction": float, "mode": str,
                 "swap_repetitions": int, "eve": dict, "delta_offset": int,
                 "pair_label": list, "seed": int}

_JSON_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
                    str: "a string", list: "an array", dict: "an object"}


def _json_check(value, kind: type, path: str):
    """value if it has the JSON type that kind stands for, or is an instance
    of any other kind, else ValueError naming path.  int takes whatever
    operator.index takes and float any real number, neither a bool, and
    returns a plain int or float."""
    if not isinstance(value, bool):
        if kind is int:
            with suppress(TypeError):
                return operator.index(value)
        elif isinstance(value, Real if kind is float else kind):
            return float(value) if kind is float else value
    got = _JSON_TYPE_NAMES.get(type(value), "null" if value is None else type(value).__name__)
    raise ValueError(f"{path}: expected {_JSON_TYPE_NAMES.get(kind, kind.__name__)}, got {got}")


def _json_fields(doc: dict, kinds: dict, parent: str) -> dict:
    """The present, non-null values of doc, each checked by _json_check
    against its key's kind; ValueError naming the path of a key not in kinds."""
    values = {}
    for key, value in doc.items():
        path = f"{parent}.{key}" if parent else key
        if key not in kinds:
            raise ValueError(f"{path}: unknown key")
        if value is not None:
            values[key] = _json_check(value, kinds[key], path)
    return values


@contextmanager
def _at(path: str, sep: str = ": "):
    """Prefix the message of a ValueError raised inside with path and sep."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}{sep}{exc}") from None


@dataclass(frozen=True)
class EveStrategy:
    """Intercept-resend attack configuration; kind "none" disables it.

    fixed_basis is a canonical basis index (0..d-1 quadratic, d
    computational) and applies only to the "fixed" picker.
    """

    kind: str = "none"
    picker: str = "uniform_all"
    fixed_basis: int | None = None

    def __post_init__(self):
        if self.fixed_basis is not None:
            object.__setattr__(self, "fixed_basis", _json_check(self.fixed_basis, int, "fixed_basis"))
        if self.kind not in _EVE_KINDS:
            raise ValueError(f"kind: unknown eavesdropper kind {self.kind!r}")
        if self.picker not in _EVE_PICKERS:
            raise ValueError(f"picker: unknown basis picker {self.picker!r}")
        if self.kind == "intercept_resend" and self.picker == "fixed" and self.fixed_basis is None:
            raise ValueError("fixed_basis: the fixed picker needs a basis index")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, cfg: dict) -> EveStrategy:
        """Strategy from the "eve" object of a session config document."""
        values = _json_fields(cfg, {"kind": str, "picker": str, "fixed_basis": int}, "eve")
        with _at("eve", "."):
            return cls(**values)


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one protocol session; validated on construction."""

    field: FieldSpec
    rounds: int
    check_fraction: float = 0.1
    mode: str = "oracle"
    swap_repetitions: int = 1
    eve: EveStrategy = dc_field(default_factory=EveStrategy)
    delta_offset: int = 0                      # an element index
    pair_label: tuple[int, int] | None = None  # (b, c) indices; None: a fresh one per round
    seed: int = 0

    def __post_init__(self):
        # a library caller meets the document's type rules; values become plain
        for name, kind in (("field", FieldSpec), ("eve", EveStrategy)):
            _json_check(getattr(self, name), kind, name)
        for name in ("rounds", "check_fraction", "swap_repetitions", "seed", "delta_offset"):
            object.__setattr__(self, name, _json_check(getattr(self, name), _CONFIG_KINDS[name], name))
        label = self.pair_label
        if label is not None:
            if isinstance(label, (Mapping, Set)) or not isinstance(label, Iterable):
                raise ValueError(f"pair_label: expected a sequence, got {type(label).__name__}")
            label = [_json_check(x, int, f"pair_label[{i}]") for i, x in enumerate(label)]
        # labels are canonical element indices
        with _at("delta_offset"):
            object.__setattr__(self, "delta_offset", self.field.check_index(self.delta_offset))
        if label is not None:
            if len(label) != 2:
                raise ValueError(f"pair_label: expected [b, c], got {len(label)} entries")
            with _at("pair_label"):
                object.__setattr__(self, "pair_label", tuple(map(self.field.check_index, label)))
        if self.rounds < 1:
            raise ValueError(f"rounds: must be at least 1, got {self.rounds}")
        if not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError(f"check_fraction: must lie in [0, 1], got {self.check_fraction}")
        if self.mode not in _MODES:
            raise ValueError(f"mode: unknown mode {self.mode!r}")
        if self.swap_repetitions < 1:
            raise ValueError(f"swap_repetitions: must be at least 1, got {self.swap_repetitions}")
        if self.seed < 0:
            raise ValueError(f"seed: expected a non-negative integer, got {self.seed}")
        if self.eve.kind == "intercept_resend" and self.eve.picker == "fixed":
            with _at("eve.fixed_basis"):
                self.field.check_index(self.eve.fixed_basis, "basis index", self.field.d + 1)

    @cached_property
    def _plan(self) -> tuple:
        """What every round reads, worked out once and kept on the instance;
        not part of equality, hashing, repr or to_json.  The tuple (field, d,
        q, pair, delta, check_fraction, eve, eve_basis, eve_high, swap, reps):
        the field, not its table, so a config pickles after a session; d; q,
        the chunk size of field.digit_tables, 0 at n = 1, differences mod d;
        pair_label, delta_offset, check_fraction; eve, whether an intercept-
        resend eavesdropper listens; eve_basis, her fixed basis, else None;
        eve_high, the bound of her drawn basis integers(eve_high), d quadratic
        or d + 1 all; swap, whether Bob compares by swap tests; reps of them."""
        spec, eve, d = self.field, self.eve, self.field.d
        listens = eve.kind == "intercept_resend"
        return (spec, d, spec.digit_tables[0] if spec.n > 1 else 0, self.pair_label,
                self.delta_offset, self.check_fraction, listens,
                eve.fixed_basis if listens and eve.picker == "fixed" else None,
                d if eve.picker == "uniform_quadratic" else d + 1,
                self.mode == "swap", self.swap_repetitions)

    def to_json(self) -> dict:
        """The config document, its keys in field order."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "field": self.field.to_config(), "eve": self.eve.to_json(),
                "pair_label": None if self.pair_label is None else list(self.pair_label)}

    @classmethod
    def from_json(cls, cfg: dict) -> SessionConfig:
        """Config from its JSON document; an absent or null key takes the dataclass
        default.  Raises ValueError naming the path of the first bad value."""
        values = _json_fields(_json_check(cfg, dict, "config"), _CONFIG_KINDS, "")
        for key in ("field", "rounds"):
            if key not in values:
                raise ValueError(f"{key}: missing")
        with _at("field"):
            values["field"] = FieldSpec.from_config(values["field"])
        if "eve" in values:
            values["eve"] = EveStrategy.from_json(values["eve"])
        return cls(**values)


@dataclass
class RoundRecord:
    """One protocol round; field values are canonical integer indices.  A
    field that only message or only check rounds fill, or only rounds with
    an eavesdropper, is None in the others.  The fields are in transcript
    order and all required, so a round builds its record in one positional
    call."""

    round: int
    kind: str
    bit_sent: int | None
    lam: int | None
    b1: int
    c1: int
    c1p: int
    eve_basis: int | None
    eve_outcome: list[int] | None
    decoded: int | None
    check_b2: int | None
    check_expected: int | None
    check_measured: int | None
    check_passed: bool | None

    def to_json(self) -> dict:
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}

    def to_jsonl(self) -> str:
        """json.dumps(self.to_json()) + "\\n", byte for byte, without building
        the dict; kind is "message" or "check", every other value an int, a
        list of ints, a bool or None."""
        eve = self.eve_outcome
        passed = self.check_passed
        return (f'{{"round": {self.round}, "kind": "{self.kind}", '
                f'"bit_sent": {"null" if self.bit_sent is None else self.bit_sent}, '
                f'"lambda": {"null" if self.lam is None else self.lam}, '
                f'"b1": {self.b1}, "c1": {self.c1}, "c1p": {self.c1p}, '
                f'"eve_basis": {"null" if self.eve_basis is None else self.eve_basis}, '
                f'"eve_outcome": {"null" if eve is None else "[" + ", ".join(map(str, eve)) + "]"}, '
                f'"decoded": {"null" if self.decoded is None else self.decoded}, '
                f'"check_b2": {"null" if self.check_b2 is None else self.check_b2}, '
                f'"check_expected": {"null" if self.check_expected is None else self.check_expected}, '
                f'"check_measured": {"null" if self.check_measured is None else self.check_measured}, '
                f'"check_passed": {"null" if passed is None else "true" if passed else "false"}}}\n')


def run_round(config: SessionConfig, round_index: int, rng: Draws) -> RoundRecord:
    """One round on MUB labels, drawing from rng; the dense reference round
    of the tests makes the same draws in the same order and writes the same
    record, except at a variate within rounding of an outcome boundary,
    where its float cumsum and Draws.outcome may differ (the differential
    tests' seeds never draw one).

    A measurement of the state labeled (basis, c) is certain in its own
    basis and uniform in every other, one variate either way, as born_sample
    draws.  Bob's two particles always share a basis, so comparing them is
    comparing their c labels: equal states have overlap 1, others 0.

    The round unpacks its config's plan tuple, built once (SessionConfig._plan
    gives each entry's meaning), so it costs its draws, the largest share; a
    few integer operations on canonical indices, each relation a difference
    of labels, three table lookups per difference at n >= 2; and one
    positional RoundRecord.  The draws of one word (c1, c1p, k1, k2, the duty
    variate, the check outcome and each swap test) are taken inline through
    rng.words and rng.refill, with the word arithmetic of Draws.outcome and
    Draws.random and no method call; only integers() stays a call, for its
    kept 32-bit half.  A swap comparison of equal states takes its reps
    words in one rng.skip(reps), so a round's cost does not grow with reps.
    """
    field, d, q, pair, delta, check_fraction, eve, eve_basis, eve_high, swap, reps = config._plan
    integers, words, refill = rng.integers, rng.words, rng.refill
    b, c = (integers(d), integers(d)) if pair is None else pair

    # Alice's outcomes are uniform in every basis; Bob's particles collapse
    # to (b2, expected) = (b - b1, c - c1) and (b2, c - delta - c1p).
    b1 = integers(d)
    c1 = ((words.pop() if words else refill()) >> 11) * d >> 53
    c1p = ((words.pop() if words else refill()) >> 11) * d >> 53
    if q:
        _, sub = field.digit_tables
        b2 = chunkwise(q, sub, b, b1)
        expected = chunkwise(q, sub, c, c1)
    else:
        b2, expected = (b - b1) % d, (c - c1) % d

    # Eve measuring in Bob's basis b2 leaves his particles as they were
    eve_outcome = None
    undisturbed = True
    if eve:
        if eve_basis is None:
            eve_basis = integers(eve_high)
        k1 = ((words.pop() if words else refill()) >> 11) * d >> 53
        k2 = ((words.pop() if words else refill()) >> 11) * d >> 53
        undisturbed = eve_basis == b2
        eve_outcome = [k1, k2]
        if undisturbed:
            c2p = chunkwise(q, sub, chunkwise(q, sub, c, delta), c1p) if q else (c - delta - c1p) % d
            eve_outcome = [expected, c2p]

    # duty assigned only after transit
    if ((words.pop() if words else refill()) >> 11) * (1.0 / (1 << 53)) < check_fraction:
        u = ((words.pop() if words else refill()) >> 11) * d >> 53
        measured = expected if undisturbed else u
        return RoundRecord(round_index, "check", None, None, b1, c1, c1p, eve_basis,
                           eve_outcome, None, b2, expected, measured, measured == expected)

    # Alice announces the match c1p - (c1 - delta) for bit 1, any other of the
    # d values for bit 0.  Bob's second state shifted by lam equals his first:
    # undisturbed, iff lam is the match; after Eve's basis e, iff k1 - lam = k2
    # at e < d, and iff k2 = k1 at e = d (a shift moves no computational state).
    bit = integers(2)
    match = chunkwise(q, sub, c1p, chunkwise(q, sub, c1, delta)) if q else (c1p - c1 + delta) % d
    lam = match
    if not bit:
        k = integers(d - 1)
        lam = k + 1 if k >= match else k
    if undisturbed:
        agree = lam == match
    elif eve_basis == d:
        agree = k1 == k2
    else:
        agree = (chunkwise(q, sub, k1, lam) if q else (k1 - lam) % d) == k2
    # a swap test is antisymmetric with probability (1 - overlap) / 2: at
    # overlap 1 never, though each test still takes its word; at overlap 0
    # when its variate (w >> 11) * 2**-53 is below 1/2, that is, when its
    # word w is below 2**63
    if not swap:
        decoded = 1 if agree else 0
    elif agree:
        rng.skip(reps)
        decoded = 1
    else:
        decoded = 1
        for _ in range(reps):
            if (words.pop() if words else refill()) < 1 << 63:
                decoded = 0
                break
    return RoundRecord(round_index, "message", bit, lam, b1, c1, c1p, eve_basis, eve_outcome,
                       decoded, None, None, None, None)


def eavesdropper_detected(passes: int, n_check: int) -> bool:
    """Whether a check failed.  The null hypothesis is "no disturbance": the
    channel has no noise, so without an eavesdropper every check passes, and
    one failed check rejects the null."""
    return passes < n_check


def summarize(records: Iterable[RoundRecord]) -> dict:
    """Session statistics, recomputable from the round records alone, counted
    in one pass over any iterable of them."""
    rounds = n_msg = n_chk = bit_errors = passes = 0
    for r in records:
        rounds += 1
        if r.kind == "message":
            n_msg += 1
            if r.decoded != r.bit_sent:
                bit_errors += 1
        elif r.kind == "check":
            n_chk += 1
            if r.check_passed:
                passes += 1
    return {
        "rounds": rounds,
        "message_rounds": n_msg,
        "check_rounds": n_chk,
        "bit_errors": bit_errors,
        "bit_error_rate": bit_errors / n_msg if n_msg else None,
        "check_passes": passes,
        "check_pass_rate": passes / n_chk if n_chk else None,
        "eavesdropper_detected": eavesdropper_detected(passes, n_chk),
    }


def session_records(config: SessionConfig) -> Iterator[RoundRecord]:
    """The session's rounds in order, each played when it is asked for, on a
    stream seeded only by the config seed."""
    rng = Draws(config.seed)
    for i in range(config.rounds):
        yield run_round(config, i, rng)


def session_summary(config: SessionConfig, records: Iterable[RoundRecord]) -> dict:
    """The summary document: schema version, the config and summarize(records)."""
    return {"v": 1, "config": config.to_json(), **summarize(records)}

"""File formats: instances, fractional solutions, outcomes, and reports.

Everything is UTF-8 JSON. Values are encoded as rational strings ("5/2",
integers shorthand as "5") so they survive serialization bit-exactly.
The instance format is stated here alone: ``valuation_to_dict`` writes each
valuation kind's parameters and ``valuation_from_dict`` reads them back,
branch for branch. An explicit table's bundle {0,2} is the key "0,2", and
the empty bundle is written only when its value is not 0; reader and writer
build a table's keys together, by doubling, and the reader refuses any other
key, such as "2,0", rather than drop its value. Values already exact are
written as they are, not rebuilt.
Solutions and configs carry the constant field "arithmetic": "exact", which
keeps their bytes stable; reading a config accepts it or its absence and
rejects any other mode. Serialization is canonical (sorted keys, fixed
indentation), so identical runs produce byte-identical files:
``canonical_dumps`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2, ensure_ascii=False)`` in one pass and, like json, takes every
``isinstance`` list, tuple or dict as a container. A ``Filled`` entry, one
shared dict with one key filled in, is written from its base's template.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Optional, Union

from .errors import AuctionError, CapacityError, FormatError, ParameterError
from .itemsets import items
from .lp import FractionalSolution
from .mechanism import MechanismConfig, Outcome, realized_welfare
from .valuations import (
    INSTANCE_ITEM_CAP,
    AdditiveValuation,
    CoverageValuation,
    ExplicitValuation,
    Instance,
    UnitDemandValuation,
    Valuation,
    XOSValuation,
)

INSTANCE_SCHEMA = "auction-instance/1"
SOLUTION_SCHEMA = "fractional-solution/1"
OUTCOME_SCHEMA = "outcome/1"
EXACT = "exact"
VALUE_LENGTH_CAP = 100  # characters of one exact value as written
NESTING_CAP = 64  # lists and objects inside one another in a file as read


def format_value(x) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def parse_value(raw) -> Fraction:
    """An exact value read from JSON: a string such as "5/2" or an integer.

    A float or a bool is refused, since neither is an exact rational as written,
    and so is an exponent ("1e5000"), which writes a huge number in a few
    characters. A value of more than ``VALUE_LENGTH_CAP`` characters raises
    ``CapacityError``. Both checks read the text alone, so no refused value
    builds a number.
    """
    if type(raw) is not str and type(raw) is not int:
        raise FormatError(f"bad exact value {raw!r}: write a string or an integer")
    text = raw if type(raw) is str else str(raw)
    if len(text) > VALUE_LENGTH_CAP:
        raise CapacityError("exact value characters", len(text), VALUE_LENGTH_CAP)
    if "e" in text or "E" in text:
        raise FormatError(f"bad exact value {raw!r}: write it without an exponent")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad exact value {raw!r}: {exc}") from exc


def _cover(raw) -> list:
    """A coverage cover read from JSON: a list of integers, no bools."""
    if not isinstance(raw, list) or any(type(e) is not int for e in raw):
        raise FormatError(f"a coverage cover lists integer elements, got {raw!r}")
    return raw


def _list(raw, what: str) -> list:
    """``raw`` if it is a JSON list; a string, whose characters would read as items, is not."""
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list, got {raw!r}")
    return raw


def _values(raw, what: str) -> list:
    """A JSON list of exact values."""
    return [parse_value(w) for w in _list(raw, what)]


def _require_exact(data: dict) -> None:
    mode = data.get("arithmetic", EXACT)
    if mode != EXACT:
        raise FormatError(f"unsupported arithmetic {mode!r}: values are exact rationals")


class Filled(dict):
    """``{**base, key: value}`` naming its shared ``base`` and ``key``, which
    ``canonical_dumps`` writes from one template: neither may change while it runs."""

    __slots__ = ("base", "key")

    def __init__(self, base: dict, key: str, value):
        dict.__init__(self, base)
        self[key] = value
        self.base = base
        self.key = key


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``.

    One pass writes every piece of text into one chunk list, joined once at
    the end. Containers are recognised by ``isinstance``, as json does: a
    tuple is a list, and an ``OrderedDict`` or other dict subclass is a dict.
    The first ``Filled`` entry of a base and key at an indent is written as a
    dict, and its text around the filled-in value is kept as a template: each
    later one writes the template's head, its own value and the tail, so the
    samples of a replications report that share one outcome write its lists
    once. A cycle raises ``ValueError`` and a value json cannot encode raises
    ``TypeError``, as json does; unlike json, a dict key that is not a
    ``str`` raises ``TypeError`` rather than being coerced.
    """
    chunks: list[str] = []
    append = chunks.append
    names: dict = {}  # dict key -> its encoded text and ": "
    active: set = set()  # ids of the containers being written: one met again is a cycle
    # (id of a Filled base, key, indent level) -> (base, head, tail)
    templates: dict = {}

    def value(prefix: str, o, level: int) -> None:
        cls = o.__class__
        if cls is str:
            append(prefix + encode_basestring(o))
        elif o is None:
            append(prefix + "null")
        elif o is True:
            append(prefix + "true")
        elif o is False:
            append(prefix + "false")
        elif cls is int:
            append(prefix + int.__repr__(o))
        elif cls is Filled and (template := templates.get((id(o.base), o.key, level))):
            _, head, tail = template
            if id(o) in active:
                raise ValueError("Circular reference detected")
            active.add(id(o))
            append(prefix + head)
            value("", o[o.key], level + 1)
            append(tail)
            active.remove(id(o))
        elif isinstance(o, (list, tuple, dict)):
            is_dict = isinstance(o, dict)
            if not o:
                append(prefix + ("{}" if is_dict else "[]"))
                return
            if id(o) in active:
                raise ValueError("Circular reference detected")
            active.add(id(o))
            append(prefix)
            start = len(chunks)
            inner = level + 1
            separator = ",\n" + "  " * inner
            if is_dict:
                lead = "{" + separator[1:]
                slot = o.key if cls is Filled else None
                for k, v in sorted(o.items()):
                    name = names.get(k)
                    if name is None:
                        if not isinstance(k, str):
                            raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                        name = names[k] = encode_basestring(k) + ": "
                    if k == slot:
                        append(lead + name)
                        split = len(chunks)
                        value("", v, inner)
                        resume = len(chunks)
                    else:
                        value(lead + name, v, inner)
                    lead = separator
                append("\n" + "  " * level + "}")
                if slot is not None:
                    templates[id(o.base), slot, level] = (
                        o.base,
                        "".join(chunks[start:split]),
                        "".join(chunks[resume:]),
                    )
            else:
                lead = "[" + separator[1:]
                for v in o:
                    value(lead, v, inner)
                    lead = separator
                append("\n" + "  " * level + "]")
            active.remove(id(o))
        else:
            # floats, str and int subclasses, and the TypeError for anything else
            append(prefix + json.dumps(o, ensure_ascii=False))

    try:
        value("", obj, 0)
    finally:
        # value's closure refers to value: without this the cycle keeps the
        # chunks and every container alive until the garbage collector runs
        del value
    append("\n")
    return "".join(chunks)


# -- valuations --------------------------------------------------------------


def _bundle_key(mask: int) -> str:
    return ",".join(map(str, items(mask)))


def _bundle_keys(m: int) -> list[str]:
    """``_bundle_key(mask)`` for every mask below ``2^m``, indexed by mask.

    Built by doubling: item j is above every item of a mask below ``1 << j``,
    so the key of ``mask | 1 << j`` is that mask's key with ",j" appended.
    """
    keys = [""]
    for j in range(m):
        item = str(j)
        keys += [key + "," + item if key else item for key in keys]
    return keys


def valuation_to_dict(v: Valuation) -> dict:
    """One bidder's entry of an instance file, as ``valuation_from_dict`` reads it."""
    if isinstance(v, AdditiveValuation):
        return {"kind": "additive", "weights": list(map(format_value, v.weights))}
    if isinstance(v, UnitDemandValuation):
        return {"kind": "unit-demand", "weights": list(map(format_value, v.weights))}
    if isinstance(v, XOSValuation):
        return {"kind": "xos", "clauses": [list(map(format_value, cl)) for cl in v.clauses]}
    if isinstance(v, CoverageValuation):
        return {
            "kind": "coverage",
            "element_weights": list(map(format_value, v.element_weights)),
            "covers": [list(items(mask)) for mask in v.cover_masks],
        }
    if isinstance(v, ExplicitValuation):
        keys = _bundle_keys(v.m)
        values = {keys[mask]: format_value(v.table[mask]) for mask in range(1, 1 << v.m)}
        if v.table[0] != 0:
            values[""] = format_value(v.table[0])  # abnormal table; keep it exact
        return {"kind": "explicit", "values": values}
    raise AuctionError(f"{v.kind!r} valuations are derived, not written to instance files")


def _explicit_table(values: dict, m: int) -> dict:
    """An explicit table by mask from its file entries, keyed as ``_bundle_key`` writes them.

    Every nonempty bundle needs an entry; the empty bundle's is optional.
    Until the file holds at least one entry per nonempty bundle, the first
    missing bundle is found without building all ``2^m`` keys, so a large m
    with few entries fails at once. A key that names no bundle (out of order,
    repeated, past m, or no item list at all) is refused rather than dropped.
    """
    if len(values) < (1 << m) - 1:
        mask = 1
        while _bundle_key(mask) in values:
            mask += 1
        raise FormatError(f"explicit table missing bundle {{{_bundle_key(mask)}}}")
    keys = _bundle_keys(m)
    table = {0: parse_value(values.get("", "0"))}
    for mask in range(1, 1 << m):
        key = keys[mask]
        if key not in values:
            raise FormatError(f"explicit table missing bundle {{{key}}}")
        table[mask] = parse_value(values[key])
    if len(values) > (1 << m) - 1 + ("" in values):
        known = set(keys)
        stray = next(key for key in values if key not in known)
        raise FormatError(f"explicit table key {stray!r} names no bundle")
    return table


def valuation_from_dict(data: dict, m: int) -> Valuation:
    if not isinstance(data, dict):
        raise FormatError(f"a bidder entry must be an object, got {data!r}")
    kind = data.get("kind")
    try:
        if kind == "additive":
            return AdditiveValuation(_values(data["weights"], "weights"))
        if kind == "unit-demand":
            return UnitDemandValuation(_values(data["weights"], "weights"))
        if kind == "xos":
            clauses = _list(data["clauses"], "clauses")
            return XOSValuation(m, [_values(cl, "an xos clause") for cl in clauses])
        if kind == "coverage":
            return CoverageValuation(
                _values(data["element_weights"], "element_weights"),
                [_cover(cover) for cover in _list(data["covers"], "covers")],
            )
        if kind == "explicit":
            values = data["values"]
            if not isinstance(values, dict):
                raise FormatError(f"explicit values must be an object, got {values!r}")
            return ExplicitValuation(m, _explicit_table(values, m))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"malformed {kind!r} valuation payload: {exc}") from exc
    raise FormatError(f"unknown valuation kind {kind!r}")


# -- instances ---------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "m": instance.m,
        "bidders": [valuation_to_dict(v) for v in instance.valuations],
        "metadata": instance.metadata,
    }


def instance_from_dict(data: dict) -> Instance:
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != INSTANCE_SCHEMA:
        raise FormatError(f"expected schema {INSTANCE_SCHEMA}, got {schema!r}")
    m = data.get("m")
    if type(m) is not int or m < 1:  # a JSON integer: no float, string or bool
        raise FormatError(f"bad item count {m!r}")
    if m > INSTANCE_ITEM_CAP:
        raise CapacityError("items of one instance", m, INSTANCE_ITEM_CAP)
    bidders = data.get("bidders") or []
    if not isinstance(bidders, list) or not bidders:
        raise FormatError(f"an instance needs a list of at least one bidder, got {bidders!r}")
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise FormatError(f"instance metadata must be an object, got {metadata!r}")
    return Instance(m, tuple(valuation_from_dict(b, m) for b in bidders), metadata=dict(metadata))


# -- solutions ---------------------------------------------------------------


def solution_to_dict(sol: FractionalSolution) -> dict:
    return {
        "schema": SOLUTION_SCHEMA,
        "arithmetic": EXACT,
        "n": sol.n,
        "m": sol.m,
        "objective": format_value(sol.objective),
        "entries": [
            {"bidder": i, "bundle": list(items(bundle)), "x": format_value(x)}
            for i, bundle, x in sol.support()
        ],
        "item_duals": None
        if sol.item_duals is None
        else [format_value(d) for d in sol.item_duals],
        "bidder_duals": None
        if sol.bidder_duals is None
        else [format_value(d) for d in sol.bidder_duals],
    }


# -- outcomes ----------------------------------------------------------------


def outcome_to_dict(outcome: Outcome, instance: Optional[Instance] = None) -> dict:
    """One report entry of ``outcome``; given the ``instance``, with its realized ``welfare``."""
    q, pay = outcome.q_values, outcome.payments
    entry = {
        "schema": OUTCOME_SCHEMA,
        "halted": outcome.halted,
        "tentative": [list(items(b)) for b in outcome.tentative],
        "kept": [list(items(b)) for b in outcome.kept],
        "final": [list(items(b)) for b in outcome.final],
        "q_values": None if q is None else [format_value(x) for x in q],
        "payments": None if pay is None else [format_value(x) for x in pay],
    }
    if instance is not None:
        entry["welfare"] = format_value(realized_welfare(instance, outcome))
    return entry


# -- configs -----------------------------------------------------------------


def config_to_dict(config: MechanismConfig) -> dict:
    return {
        "c": str(config.c),
        "p": str(config.p),
        "q_variant": config.q_variant,
        "arithmetic": EXACT,
        "seed": config.seed,
        "solver": config.solver,
    }


def config_from_dict(data: dict) -> MechanismConfig:
    if not isinstance(data, dict):
        raise FormatError(f"a mechanism config must be an object, got {data!r}")
    _require_exact(data)
    seed = data.get("seed", 0)
    if type(seed) is not int:  # a JSON integer: no float, string or bool
        raise FormatError(f"malformed mechanism config: seed {seed!r} is not an integer")
    try:
        return MechanismConfig(
            c=parse_value(data["c"]),
            p=parse_value(data["p"]),
            q_variant=data.get("q_variant", "halt"),
            seed=seed,
            solver=data.get("solver", "full"),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError, ParameterError) as exc:
        raise FormatError(f"malformed mechanism config: {exc}") from exc


# -- files -------------------------------------------------------------------


def save_json(path: Union[str, Path], obj: dict) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _nested_past_cap(data) -> bool:
    """Whether ``data`` holds lists and objects more than ``NESTING_CAP`` deep."""
    layer = [data]
    for _ in range(NESTING_CAP + 1):
        layer = [o for o in layer if isinstance(o, (list, dict))]
        if not layer:
            return False
        layer = [v for o in layer for v in (o.values() if isinstance(o, dict) else o)]
    return True


def load_json(path: Union[str, Path]) -> dict:
    """A JSON file's contents; unreadable, nested past ``NESTING_CAP`` or with a
    key repeated in one object, is a ``FormatError``."""
    too_deep = f"{path}: lists and objects nested more than {NESTING_CAP} deep"

    def unique_keys(pairs: list) -> dict:
        # json's default keeps a repeated key's last value and drops the others
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f"{path}: key {key!r} repeated in one object")
                seen.add(key)
        return obj

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except RecursionError as exc:  # nested past the decoder's own limit
        raise FormatError(too_deep) from exc
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise FormatError(f"{path}: unreadable number ({exc})") from exc
    if _nested_past_cap(data):
        raise FormatError(too_deep)
    return data


def load_instance(path: Union[str, Path]) -> Instance:
    return instance_from_dict(load_json(path))


def save_instance(path: Union[str, Path], instance: Instance) -> None:
    save_json(path, instance_to_dict(instance))

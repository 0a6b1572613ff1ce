"""File formats: instances, fractional solutions, outcomes, and reports.

Everything is UTF-8 JSON. Values are encoded as rational strings ("5/2",
integers shorthand as "5") so they survive serialization bit-exactly.
Solutions and configs carry the constant field "arithmetic": "exact", which
keeps their bytes stable; reading accepts it or its absence and rejects any
other mode. Serialization is canonical (sorted keys, fixed indentation), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import FormatError, ParameterError
from .itemsets import ItemSet
from .lp import FractionalSolution
from .mechanism import MechanismConfig, Outcome
from .valuations import (
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


def format_value(x) -> str:
    return str(Fraction(x))


def parse_value(raw) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise FormatError(f"bad exact value {raw!r}: {exc}") from exc


def _require_exact(data: dict) -> None:
    mode = data.get("arithmetic", EXACT)
    if mode != EXACT:
        raise FormatError(f"unsupported arithmetic {mode!r}: values are exact rationals")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# -- valuations --------------------------------------------------------------


def _bundle_key(mask: int) -> str:
    return ",".join(str(j) for j in ItemSet(mask))


def valuation_to_dict(v: Valuation) -> dict:
    return {"kind": v.kind, **v.payload()}


def valuation_from_dict(data: dict, m: int) -> Valuation:
    kind = data.get("kind")
    try:
        if kind == "additive":
            return AdditiveValuation([Fraction(w) for w in data["weights"]])
        if kind == "unit-demand":
            return UnitDemandValuation([Fraction(w) for w in data["weights"]])
        if kind == "xos":
            return XOSValuation(m, [[Fraction(w) for w in cl] for cl in data["clauses"]])
        if kind == "coverage":
            return CoverageValuation(
                [Fraction(w) for w in data["element_weights"]], data["covers"]
            )
        if kind == "explicit":
            values = data["values"]
            table = {0: Fraction(values.get("", "0"))}
            for mask in range(1, 1 << m):
                key = _bundle_key(mask)
                if key not in values:
                    raise FormatError(f"explicit table missing bundle {{{key}}}")
                table[mask] = Fraction(values[key])
            return ExplicitValuation(m, table)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
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
    if not isinstance(m, int) or m < 1:
        raise FormatError(f"bad item count {m!r}")
    bidders = data.get("bidders") or []
    if not bidders:
        raise FormatError("an instance needs at least one bidder")
    return Instance(
        m,
        tuple(valuation_from_dict(b, m) for b in bidders),
        metadata=dict(data.get("metadata") or {}),
    )


# -- solutions ---------------------------------------------------------------


def solution_to_dict(sol: FractionalSolution) -> dict:
    return {
        "schema": SOLUTION_SCHEMA,
        "arithmetic": EXACT,
        "n": sol.n,
        "m": sol.m,
        "objective": format_value(sol.objective),
        "entries": [
            {"bidder": i, "bundle": list(bundle.indices()), "x": format_value(x)}
            for i, bundle, x in sol.support()
        ],
        "item_duals": None
        if sol.item_duals is None
        else [format_value(d) for d in sol.item_duals],
        "bidder_duals": None
        if sol.bidder_duals is None
        else [format_value(d) for d in sol.bidder_duals],
    }


def solution_from_dict(data: dict) -> FractionalSolution:
    if data.get("schema") != SOLUTION_SCHEMA:
        raise FormatError(f"expected schema {SOLUTION_SCHEMA}, got {data.get('schema')!r}")
    _require_exact(data)
    entries = {}
    for entry in data.get("entries", []):
        bundle = ItemSet.from_indices(entry["bundle"])
        entries[(entry["bidder"], bundle)] = parse_value(entry["x"])
    duals = data.get("item_duals")
    bduals = data.get("bidder_duals")
    return FractionalSolution(
        n=data["n"],
        m=data["m"],
        entries=entries,
        objective=parse_value(data["objective"]),
        item_duals=None if duals is None else tuple(parse_value(d) for d in duals),
        bidder_duals=None if bduals is None else tuple(parse_value(d) for d in bduals),
    )


# -- outcomes ----------------------------------------------------------------


def _bundles_to_lists(bundles) -> list:
    return [list(b.indices()) for b in bundles]


def _bundles_from_lists(raw) -> tuple:
    return tuple(ItemSet.from_indices(idxs) for idxs in raw)


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "schema": OUTCOME_SCHEMA,
        "halted": outcome.halted,
        "tentative": _bundles_to_lists(outcome.tentative),
        "kept": _bundles_to_lists(outcome.kept),
        "final": _bundles_to_lists(outcome.final),
        "q_values": None
        if outcome.q_values is None
        else [format_value(q) for q in outcome.q_values],
        "payments": None
        if outcome.payments is None
        else [format_value(charge) for charge in outcome.payments],
    }


def outcome_from_dict(data: dict) -> Outcome:
    if data.get("schema") != OUTCOME_SCHEMA:
        raise FormatError(f"expected schema {OUTCOME_SCHEMA}, got {data.get('schema')!r}")
    q = data.get("q_values")
    payments = data.get("payments")
    return Outcome(
        halted=data["halted"],
        tentative=_bundles_from_lists(data["tentative"]),
        kept=_bundles_from_lists(data["kept"]),
        final=_bundles_from_lists(data["final"]),
        q_values=None if q is None else tuple(parse_value(v) for v in q),
        payments=None if payments is None else tuple(parse_value(v) for v in payments),
    )


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
    _require_exact(data)
    try:
        return MechanismConfig(
            c=Fraction(data["c"]),
            p=Fraction(data["p"]),
            q_variant=data.get("q_variant", "halt"),
            seed=int(data.get("seed", 0)),
            solver=data.get("solver", "full"),
        )
    except (KeyError, ValueError, ZeroDivisionError, ParameterError) as exc:
        raise FormatError(f"malformed mechanism config: {exc}") from exc


# -- files -------------------------------------------------------------------


def save_json(path: Union[str, Path], obj: dict) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def load_json(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path: Union[str, Path]) -> Instance:
    return instance_from_dict(load_json(path))


def save_instance(path: Union[str, Path], instance: Instance) -> None:
    save_json(path, instance_to_dict(instance))

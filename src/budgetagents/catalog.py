"""Priced, tier-ranked LLM catalog and per-call cost estimates.

Prices are configured per million tokens, matching vendor quoting. Cost
estimates are reported in rescaled units where 1 unit = one millionth of the
currency (micro-dollars when prices are in dollars), so a call with 500 input
tokens at $0.27/Mtok costs 135.0 units and the budget numbers stay readable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .schema import (
    INT, NUMBER, STRING, check, each, non_negative, obj, positive, read_json, spec, table, unique, validate,
)


@dataclass(frozen=True)
class ModelSpec:
    """One catalog entry, field for field as the catalog file states it.
    Tier 1 is the strongest rank; larger is weaker."""

    name: str = spec(STRING)
    tier: int = spec(positive(INT))
    price_in_per_mtok: float = spec(non_negative(NUMBER))
    price_out_per_mtok: float = spec(non_negative(NUMBER))
    backend_id: str = spec(STRING)

    def __post_init__(self) -> None:
        validate(self)


def estimate_cost(model: ModelSpec, t_in: int, t_out: int) -> float:
    """Estimated cost of a single call, in rescaled units.

    Per-token prices are price/1e6 and the metric is rescaled by 1e6, so the
    unit cost reduces to token count times the per-Mtok price. Linear in both
    token counts.
    """
    if t_in < 0 or t_out < 0:
        raise ValueError("token counts must be >= 0")
    return t_in * model.price_in_per_mtok + t_out * model.price_out_per_mtok


# One entry of the catalog's 'models' list.
_MODEL_FIELDS = table(ModelSpec)


@dataclass(frozen=True)
class ModelCatalog:
    """Immutable collection of models; validated once at construction.

    Each field is a key of the catalog file, checked by its spec. Names are
    unique, and tiers must be contiguous from 1 with at least one model each.
    When a tier declares several models, its unit cost is the most expensive
    member (conservative for budgeting) and its instances cycle through the
    members in declaration order (see topology.expand_pool). `backends` is
    the catalog file's endpoint section, keyed by backend_id; it is not part
    of the content hash.
    """

    models: tuple[ModelSpec, ...] = spec(each(obj(_MODEL_FIELDS, required=tuple(_MODEL_FIELDS))))
    # Each entry is checked where it is used (cli, real runs only).
    backends: dict = spec((lambda v: isinstance(v, dict), "an object"), default_factory=dict)
    num_tiers: int = field(init=False)  # the weakest tier, derived from the models

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("catalog has no models")
        object.__setattr__(self, "models", tuple(self.models))
        unique((m.name for m in self.models), "models", "name")
        declared = sorted({m.tier for m in self.models})
        object.__setattr__(self, "num_tiers", declared[-1])
        if declared != list(range(1, self.num_tiers + 1)):
            raise ValueError(f"tiers must cover 1..L without gaps, got {declared}")

    def tier_models(self, tier: int) -> list[ModelSpec]:
        """Models of one tier, in declaration order; construction leaves no
        tier from 1 to num_tiers empty."""
        return [m for m in self.models if m.tier == tier]

    def tier_costs(self, t_in: int, t_out: int) -> list[float]:
        """Per-tier unit costs, strongest tier first; a tier costs as much as
        its most expensive member."""
        return [
            max(estimate_cost(m, t_in, t_out) for m in self.tier_models(t))
            for t in range(1, self.num_tiers + 1)
        ]

    def to_dict(self) -> dict:
        return {"models": [asdict(m) for m in self.models]}

    def content_hash(self) -> str:
        """Stable identity of the catalog contents, for provenance headers."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ModelCatalog":
        check(data, _CATALOG_FIELDS, required=("models",), name="catalog")
        # Integer prices become floats, so a catalog hashes the same either way.
        return cls(**dict(data, models=[
            ModelSpec(**dict(
                entry,
                price_in_per_mtok=float(entry["price_in_per_mtok"]),
                price_out_per_mtok=float(entry["price_out_per_mtok"]),
            ))
            for entry in data["models"]
        ]))

    @classmethod
    def load(cls, path: str | Path) -> "ModelCatalog":
        return cls.from_dict(read_json(path))


_CATALOG_FIELDS = table(ModelCatalog)

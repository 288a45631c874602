"""Priced, tier-ranked LLM catalog and per-call cost estimates.

Prices are configured per million tokens, matching vendor quoting. Cost
estimates are reported in rescaled units where 1 unit = one millionth of the
currency (micro-dollars when prices are in dollars), so a call with 500 input
tokens at $0.27/Mtok costs 135.0 units and the budget numbers stay readable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .schema import INT, NUMBER, STRING, check, each, obj

DEFAULT_INPUT_TOKENS = 500
DEFAULT_OUTPUT_TOKENS = 500


@dataclass(frozen=True)
class ModelSpec:
    """One catalog entry. Tier 1 is the strongest rank; larger is weaker."""

    name: str
    tier: int
    price_in: float   # per million input tokens
    price_out: float  # per million output tokens
    backend_id: str

    def __post_init__(self) -> None:
        if self.tier < 1:
            raise ValueError(f"model {self.name!r}: tier must be >= 1, got {self.tier}")
        if self.price_in < 0 or self.price_out < 0:
            raise ValueError(f"model {self.name!r}: prices must be >= 0")


def estimate_cost(model: ModelSpec, t_in: int, t_out: int) -> float:
    """Estimated cost of a single call, in rescaled units.

    Per-token prices are price/1e6 and the metric is rescaled by 1e6, so the
    unit cost reduces to token count times the per-Mtok price. Linear in both
    token counts.
    """
    if t_in < 0 or t_out < 0:
        raise ValueError("token counts must be >= 0")
    return t_in * model.price_in + t_out * model.price_out


# One entry of the catalog's 'models' list; ranges are checked by ModelSpec.
_MODEL_FIELDS = {
    "name": STRING,
    "tier": INT,
    "price_in_per_mtok": NUMBER,
    "price_out_per_mtok": NUMBER,
    "backend_id": STRING,
}
# Each 'backends' entry is checked where it is used (cli, real runs only).
_CATALOG_FIELDS = {
    "models": each(obj(_MODEL_FIELDS, required=tuple(_MODEL_FIELDS))),
    "backends": (lambda v: isinstance(v, dict), "an object"),
}


class ModelCatalog:
    """Immutable collection of models; validated once at construction.

    Tiers must be contiguous from 1 with at least one model each. When a tier
    declares several models, its unit cost is the most expensive member
    (conservative for budgeting) and its instances cycle through the members
    in declaration order (see topology.expand_pool).
    """

    def __init__(self, models: list[ModelSpec]):
        if not models:
            raise ValueError("catalog has no models")
        self._models = tuple(models)
        declared = sorted({m.tier for m in models})
        self._num_tiers = declared[-1]
        if declared != list(range(1, self._num_tiers + 1)):
            raise ValueError(f"tiers must cover 1..L without gaps, got {declared}")

    @property
    def models(self) -> tuple[ModelSpec, ...]:
        return self._models

    @property
    def num_tiers(self) -> int:
        return self._num_tiers

    def tier_models(self, tier: int) -> list[ModelSpec]:
        """Models of one tier, in declaration order."""
        found = [m for m in self._models if m.tier == tier]
        if not found:
            raise ValueError(f"no models in tier {tier}")
        return found

    def tier_costs(self, t_in: int = DEFAULT_INPUT_TOKENS, t_out: int = DEFAULT_OUTPUT_TOKENS) -> list[float]:
        """Per-tier unit costs, strongest tier first; a tier costs as much as
        its most expensive member."""
        return [
            max(estimate_cost(m, t_in, t_out) for m in self.tier_models(t))
            for t in range(1, self._num_tiers + 1)
        ]

    def to_dict(self) -> dict:
        return {
            "models": [
                {
                    "name": m.name,
                    "tier": m.tier,
                    "price_in_per_mtok": m.price_in,
                    "price_out_per_mtok": m.price_out,
                    "backend_id": m.backend_id,
                }
                for m in self._models
            ]
        }

    def content_hash(self) -> str:
        """Stable identity of the catalog contents, for provenance headers."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ModelCatalog":
        check(data, _CATALOG_FIELDS, required=("models",), name="catalog")
        return cls([
            ModelSpec(
                name=entry["name"],
                tier=entry["tier"],
                price_in=float(entry["price_in_per_mtok"]),
                price_out=float(entry["price_out_per_mtok"]),
                backend_id=entry["backend_id"],
            )
            for entry in data["models"]
        ])

    @classmethod
    def load(cls, path: str | Path) -> "ModelCatalog":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

"""Table 3: Phi area and power breakdown per component."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.config import ArchConfig
from ..hw.energy import PhiEnergyModel


@dataclass(frozen=True)
class ComponentRow:
    """Area / power entry of one hardware component."""

    component: str
    area_mm2: float
    power_mw: float


@dataclass
class Table3Result:
    """The full Table 3 breakdown."""

    rows: list[ComponentRow] = field(default_factory=list)

    @property
    def total_area_mm2(self) -> float:
        """Total accelerator area."""
        return sum(row.area_mm2 for row in self.rows)

    @property
    def total_power_mw(self) -> float:
        """Total accelerator power."""
        return sum(row.power_mw for row in self.rows)

    def row(self, component: str) -> ComponentRow:
        """Look up one component's row."""
        for row in self.rows:
            if row.component == component:
                return row
        raise KeyError(component)

    def as_dicts(self) -> list[dict]:
        """Rows plus a total line as dictionaries."""
        data = [
            {"component": r.component, "area_mm2": r.area_mm2, "power_mw": r.power_mw}
            for r in self.rows
        ]
        data.append(
            {
                "component": "total",
                "area_mm2": self.total_area_mm2,
                "power_mw": self.total_power_mw,
            }
        )
        return data


def run_table3(arch: ArchConfig | None = None) -> Table3Result:
    """Reproduce the Table 3 area / power breakdown."""
    model = PhiEnergyModel(arch or ArchConfig())
    areas = model.area_report().components
    powers = model.power_report()
    result = Table3Result()
    for component in areas:
        result.rows.append(
            ComponentRow(
                component=component,
                area_mm2=areas[component],
                power_mw=powers[component],
            )
        )
    return result

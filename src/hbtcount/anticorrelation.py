"""Reanalysis of the Aspect-Grangier single-photon anticorrelation data.

Covers the two-step cascade dynamics, the quantum anticorrelation parameter
alpha, its equivalent mode-count form, the mode-based coincidence ratio
K = 1 - 1/M with the Lorentzian mode function, empirical transmission /
reflection observables, and reproduction of the published run table from
an embedded dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .elementary import _count
from .errors import DomainError
from .modes import _lorentzian

# experimental defaults: gate over lifetime w/tau_s, solid-angle ratio,
# stated overlap factor, and reference pump level
DEFAULT_GATE_RATIO = 9.0 / 4.7
DEFAULT_OMEGA_RATIO = 1.06
DEFAULT_F = 0.9
REFERENCE_PUMP = 0.06

DATASET_NAME = "aspect_grangier_table1.csv"
# The run table's columns: (CSV column, GateRecord field, parse type)
_TABLE1 = (("row", "row", int), ("Nw", "pump", float),
           ("N1_per_s", "trigger_rate", float), ("T_s", "duration", float),
           ("n_2r", "singles_r", int), ("n_2t", "singles_t", int),
           ("measured_coincidences", "measured_coincidences", int))


@dataclass(frozen=True)
class CascadeModel:
    """Pump and gate parameters of the two-photon cascade source."""

    pump_rate: float            # cascades per second
    gate: float                 # gate duration w, seconds
    lifetime: float             # intermediate-level lifetime tau_s, seconds
    solid_angle_ratio: float    # Omega_2 / Omega_1
    gamma1: float               # upper-level decay rate, 1/s

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (
                self.pump_rate, self.gate, self.lifetime,
                self.solid_angle_ratio, self.gamma1)):
            raise ValueError("cascade parameters must be positive and finite")
        if self.gamma2 <= self.gamma1:
            raise ValueError("requires gamma2 = 1/tau_s > gamma1")
        if self.pump == math.inf:
            raise DomainError(f"pump N*w overflows float range at N = "
                              f"{self.pump_rate!r}, w = {self.gate!r}")

    @property
    def gamma2(self) -> float:
        return 1.0 / self.lifetime

    @property
    def pump(self) -> float:
        """Mean number of cascades per gate, N*w."""
        return self.pump_rate * self.gate

    @property
    def overlap(self) -> float:
        return gate_overlap(self.gate, self.lifetime, self.solid_angle_ratio)


@dataclass(frozen=True)
class GateRecord:
    """One row of the published run table."""

    row: int
    pump: float                   # Nw, mean cascades per gate
    trigger_rate: float           # N1, counts/s
    duration: float               # T, s
    singles_r: int                # reflected singles n_2r
    singles_t: int                # transmitted singles n_2t
    measured_coincidences: int

    def __post_init__(self):
        for name in ("row", "singles_r", "singles_t", "measured_coincidences"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        for name in ("trigger_rate", "duration"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, not "
                                 f"{getattr(self, name)!r}")
        if self.trigger_rate * self.duration == math.inf:
            raise DomainError(f"gate count N1*T overflows float range at "
                              f"N1 = {self.trigger_rate!r}, "
                              f"T = {self.duration!r}")
        if max(self.singles_r, self.singles_t) > self.gates:
            raise ValueError("singles cannot exceed the number of gates")

    @property
    def gates(self) -> int:
        """Number of coincidence gates n_g = N1 * T."""
        return round(self.trigger_rate * self.duration)


def cascade_population(t: float, gamma1: float, gamma2: float) -> float:
    """Occupation probability of the intermediate cascade level at time t.

    P2(t) = gamma1/(gamma2-gamma1) * (exp(-gamma1 t) - exp(-gamma2 t)), as
    gamma1 exp(-min(gamma1, gamma2) t) (1 - exp(-g t))/g at g = |gamma2 -
    gamma1|, whose last factor is t at equal rates.
    """
    if not (math.inf > gamma1 > 0.0 and math.inf > gamma2 > 0.0
            and math.inf > t >= 0.0):
        raise ValueError("rates must be positive, t non-negative, all finite")
    gap = abs(gamma2 - gamma1)
    rise = -math.expm1(-gap * t) / gap if gap else t
    return gamma1 * math.exp(-min(gamma1, gamma2) * t) * rise


def gate_overlap(gate: float, lifetime: float, omega_ratio: float) -> float:
    """Overlap factor f(w) = (Omega2/Omega1) * (1 - exp(-w/tau_s))."""
    if not all(0.0 < x < math.inf for x in (gate, lifetime, omega_ratio)):
        raise ValueError("gate, lifetime and solid-angle ratio must be "
                         "positive and finite")
    value = omega_ratio * -math.expm1(-gate / lifetime)
    if value == 0.0:
        raise DomainError(f"overlap f underflows to 0 at w = {gate!r}, "
                          f"tau_s = {lifetime!r}, Omega2/Omega1 = "
                          f"{omega_ratio!r}")
    return value


def alpha_qm(pump: float, f: float) -> float:
    """Quantum anticorrelation parameter (2 f Nw + Nw^2)/(f + Nw)^2 (< 1)."""
    return _alpha(pump, f)[0]


def alpha_mode_form(pump: float, f: float) -> tuple[float, float]:
    """Equivalent mode form: M = (f + Nw)^2 / f^2, alpha = 1 - 1/M."""
    alpha, _ = _alpha(pump, f)
    m_bar = (1.0 + pump / f) * (1.0 + pump / f)
    if m_bar == math.inf:  # also when pump / f is inf
        raise DomainError(f"alpha_mode_form: ((f + Nw) / f)**2 overflows at "
                          f"f = {f!r}, Nw = {pump!r}")
    return alpha, m_bar


def _alpha(pump: float, f: float) -> tuple[float, float]:
    """(alpha, alpha/a) = (a (a + 2b), a + 2b)/(a + b)^2 for a, b = Nw, f over
    max(Nw, f): alpha = r (2 + r)/(1 + r)^2 at r = Nw/f = a/b, no overflow."""
    if not (math.inf > pump >= 0.0 and math.inf > f > 0.0):
        raise ValueError("requires finite Nw >= 0 and f > 0")
    a, b = pump / max(pump, f), f / max(pump, f)
    slope = (a + 2.0 * b) / (a + b) ** 2
    return a * slope, slope


def k_anticorrelation(pump: float, f: float) -> tuple[float, float]:
    """Mode-based coincidence ratio via the Lorentzian mode count.

    The dimensionless overlap is x = 4 * Nw * f; returns (K, M) with
    K = 1 - 1/M and M the Lorentzian mode count at x.  M = 1 + O(x), so
    below x = 1 K is x times the series of K/x, which keeps its digits.
    """
    if not (math.inf > pump >= 0.0 and math.inf > f > 0.0):
        raise ValueError("requires finite Nw >= 0 and f > 0")
    x = 4.0 * pump * f
    if x == math.inf:
        raise DomainError(f"overlap x = 4 Nw f overflows float range at "
                          f"f = {f!r}, Nw = {pump!r}")
    inv_m, k, _ = _lorentzian(x)
    return k, 1.0 / inv_m


def _relative_difference(pump: float, f: float) -> float:
    """100 (alpha - K)/(alpha + K) = 100 (2/(1 + rho) - 1), rho = K/alpha =
    4 f max(Nw, f) (K/x)/(alpha/a) with Nw cancelled: rho -> 4f^2/3 as Nw -> 0,
    and it passes float range only where the difference is -100."""
    rho = (4.0 * (f * (max(pump, f) * _lorentzian(4.0 * pump * f)[2]))
           / _alpha(pump, f)[1])
    return 100.0 * (2.0 / (1.0 + rho) - 1.0)


def accidental_coincidences(rec: GateRecord) -> float:
    """Accidental coincidences n_2r * n_2t / n_g (unrounded)."""
    if rec.gates == 0:
        raise DomainError("no gates recorded")
    return rec.singles_r * rec.singles_t / rec.gates


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def predicted_coincidences(rec: GateRecord, model: str = "k_mode",
                           f: float = DEFAULT_F) -> int:
    """Predicted coincidence count: accidentals scaled by alpha or K.

    model is 'alpha_qm' or 'k_mode'; rounding is half-away-from-zero.
    """
    if model == "alpha_qm":
        coef = alpha_qm(rec.pump, f)
    elif model == "k_mode":
        coef, _ = k_anticorrelation(rec.pump, f)
    else:
        raise ValueError("model must be 'alpha_qm' or 'k_mode'")
    return _round_half_away(accidental_coincidences(rec) * coef)


def empirical_observables(rec: GateRecord,
                          reference_pump: float = REFERENCE_PUMP
                          ) -> tuple[float, float, float]:
    """Measured (T_obs, R_obs, M_emp).

    T_obs and R_obs are the effective transmission/reflection shares of the
    singles; M_emp = T_obs * R_obs * Nw / (Nw)_0 is the empirical
    mode-count regression.
    """
    total = rec.singles_t + rec.singles_r
    if total == 0:
        raise DomainError("no singles recorded")
    if not 0.0 < reference_pump < math.inf:
        raise ValueError("reference pump must be positive and finite")
    t_obs = rec.singles_t / total
    r_obs = rec.singles_r / total
    m_emp = t_obs * r_obs * rec.pump / reference_pump
    if not math.isfinite(m_emp):
        raise DomainError(f"M_emp overflows at reference pump "
                          f"{reference_pump!r}")
    return t_obs, r_obs, m_emp


def load_table1(path: str | None = None) -> list[GateRecord]:
    """Load the embedded run table, or a CSV with the same columns at
    `path`, either read as text and split by `str.splitlines`."""
    table = (resources.files("hbtcount.data") / DATASET_NAME if path is None
             else Path(path))
    lines = table.read_text().splitlines()
    # a short row's missing fields read as "", which no field parses
    reader = csv.DictReader(lines, restval="")
    fields = reader.fieldnames or ()  # None for an empty file
    missing = [column for column, _, _ in _TABLE1 if column not in fields]
    if missing:
        raise ValueError(f"run table lacks column(s) {', '.join(missing)}")
    records = [GateRecord(**{field: parse(row[column])
                             for column, field, parse in _TABLE1})
               for row in reader]
    if not records:
        raise ValueError("run table has no rows")
    return records


def table1_report(records: list[GateRecord] | None = None,
                  f: float = DEFAULT_F,
                  reference_pump: float = REFERENCE_PUMP) -> list[dict]:
    """Full per-row reproduction of the run table.

    Row 1 is flagged anomalous (measured coincidences exceed the accidental
    level; the run shows bunching rather than anticorrelation) and is
    excluded from pass/fail comparisons downstream.
    """
    if records is None:
        records = load_table1()
    report = []
    for rec in records:
        alpha = alpha_qm(rec.pump, f)
        k, m = k_anticorrelation(rec.pump, f)
        t_obs, r_obs, m_emp = empirical_observables(rec, reference_pump)
        acc = accidental_coincidences(rec)
        report.append({
            "row": rec.row,
            "Nw": rec.pump,
            "gates": rec.gates,
            "n_2r": rec.singles_r,
            "n_2t": rec.singles_t,
            "accidental": acc,
            "expected": _round_half_away(acc),
            "alpha_qm": alpha,
            "k_mode": k,
            "modes": m,
            "calculated_alpha": _round_half_away(acc * alpha),
            "calculated_k": _round_half_away(acc * k),
            "measured": rec.measured_coincidences,
            "T_obs": t_obs,
            "R_obs": r_obs,
            "M_emp": m_emp,
            "relative_difference": _relative_difference(rec.pump, f),
            "anomalous": rec.measured_coincidences > acc,
        })
    return report

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

from .errors import DomainError
from .modes import lorentzian_mode_count

# experimental defaults: gate over lifetime w/tau_s, solid-angle ratio,
# stated overlap factor, and reference pump level
DEFAULT_GATE_RATIO = 9.0 / 4.7
DEFAULT_OMEGA_RATIO = 1.06
DEFAULT_F = 0.9
REFERENCE_PUMP = 0.06

DATASET_NAME = "aspect_grangier_table1.csv"


@dataclass(frozen=True)
class CascadeModel:
    """Pump and gate parameters of the two-photon cascade source."""

    pump_rate: float            # cascades per second
    gate: float                 # gate duration w, seconds
    lifetime: float             # intermediate-level lifetime tau_s, seconds
    solid_angle_ratio: float    # Omega_2 / Omega_1
    gamma1: float               # upper-level decay rate, 1/s

    def __post_init__(self):
        if min(self.pump_rate, self.gate, self.lifetime,
               self.solid_angle_ratio, self.gamma1) <= 0.0:
            raise ValueError("cascade parameters must be positive")
        if self.gamma2 <= self.gamma1:
            raise ValueError("requires gamma2 = 1/tau_s > gamma1")

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
        if self.trigger_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("trigger rate and duration must be positive")
        if min(self.singles_r, self.singles_t, self.measured_coincidences) < 0:
            raise ValueError("counts must be non-negative")
        if max(self.singles_r, self.singles_t) > self.gates:
            raise ValueError("singles cannot exceed the number of gates")

    @property
    def gates(self) -> int:
        """Number of coincidence gates n_g = N1 * T."""
        return round(self.trigger_rate * self.duration)


def cascade_population(t: float, gamma1: float, gamma2: float) -> float:
    """Occupation probability of the intermediate cascade level at time t.

    P2(t) = gamma1/(gamma2-gamma1) * (exp(-gamma1 t) - exp(-gamma2 t));
    the degenerate-rate limit gamma1 -> gamma2 uses gamma1*t*exp(-gamma1 t).
    """
    if gamma1 <= 0.0 or gamma2 <= 0.0 or t < 0.0:
        raise ValueError("rates must be positive and t non-negative")
    if abs(gamma1 - gamma2) / gamma2 < 1e-12:
        return gamma1 * t * math.exp(-gamma1 * t)
    return (gamma1 / (gamma2 - gamma1)
            * (math.exp(-gamma1 * t) - math.exp(-gamma2 * t)))


def gate_overlap(gate: float, lifetime: float, omega_ratio: float) -> float:
    """Overlap factor f(w) = (Omega2/Omega1) * (1 - exp(-w/tau_s))."""
    if min(gate, lifetime, omega_ratio) <= 0.0:
        raise ValueError("gate, lifetime and solid-angle ratio must be positive")
    return omega_ratio * -math.expm1(-gate / lifetime)


def alpha_qm(pump: float, f: float) -> float:
    """Quantum anticorrelation parameter (2 f Nw + Nw^2)/(f + Nw)^2 (< 1)."""
    if pump < 0.0 or f <= 0.0:
        raise ValueError("requires Nw >= 0 and f > 0")
    try:
        return (2.0 * f * pump + pump * pump) / (f + pump) ** 2
    except OverflowError:
        raise DomainError(f"alpha_qm: (f + Nw)**2 overflows at f = {f!r}, "
                          f"Nw = {pump!r}") from None


def alpha_mode_form(pump: float, f: float) -> tuple[float, float]:
    """Equivalent mode form: M = (f + Nw)^2 / f^2, alpha = 1 - 1/M."""
    if pump < 0.0 or f <= 0.0:
        raise ValueError("requires Nw >= 0 and f > 0")
    m_bar = ((f + pump) / f) ** 2
    return 1.0 - 1.0 / m_bar, m_bar


def k_anticorrelation(pump: float, f: float) -> tuple[float, float]:
    """Mode-based coincidence ratio via the Lorentzian mode count.

    The dimensionless overlap is x = 4 * Nw * f; returns (K, M) with
    K = 1 - 1/M and M the Lorentzian mode count at x.
    """
    if pump < 0.0 or f <= 0.0:
        raise ValueError("requires Nw >= 0 and f > 0")
    m = lorentzian_mode_count(4.0 * pump * f)
    return 1.0 - 1.0 / m, m


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
    if reference_pump <= 0.0:
        raise ValueError("reference pump must be positive")
    t_obs = rec.singles_t / total
    r_obs = rec.singles_r / total
    m_emp = t_obs * r_obs * rec.pump / reference_pump
    if not math.isfinite(m_emp):
        raise DomainError(f"M_emp overflows at reference pump "
                          f"{reference_pump!r}")
    return t_obs, r_obs, m_emp


def load_table1(path: str | None = None) -> list[GateRecord]:
    """Load the embedded run table (or a CSV with the same columns)."""
    if path is None:
        text = (resources.files("hbtcount.data") / DATASET_NAME).read_text()
        lines = text.splitlines()
    else:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
    records = []
    for row in csv.DictReader(lines):
        records.append(GateRecord(
            row=int(row["row"]),
            pump=float(row["Nw"]),
            trigger_rate=float(row["N1_per_s"]),
            duration=float(row["T_s"]),
            singles_r=int(row["n_2r"]),
            singles_t=int(row["n_2t"]),
            measured_coincidences=int(row["measured_coincidences"]),
        ))
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
            "relative_difference": (100.0 * (alpha - k) / (alpha + k)
                                    if alpha + k > 0 else 0.0),
            "anomalous": rec.measured_coincidences > acc,
        })
    return report

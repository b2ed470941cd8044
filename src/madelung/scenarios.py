"""Preset scenarios: the stock well / oscillator / double-well / pulse /
vortex configurations, transmission measurement, and 50/50 beam-splitter
tuning, with deterministic file bundles per run."""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyDecomposition,
    frame_decomposition,
    frame_ledger,
    write_frame_table,
)
from .flow import (
    circulation,
    find_nodes,
    integrate_loop_2d,
    loop_seeds_on_axis,
    loops_to_csv,
    node_events_to_json,
    streamline_bundle,
    streamlines_to_csv,
    vortex_profile,
    vortex_profile_to_csv,
)
from .grids import Grid1D, Grid2D, trapezoid_weights, write_json
from .spectral import (
    EigenBasis,
    Harmonic,
    InfiniteWell,
    QuarticDoubleWell,
    WellWithBarrier,
    _barrier_span,
    eigenbasis,
    max_residual,
    product_basis_2d,
    snapped_barrier_width,
)
from .states import (
    Superposition,
    WavepacketSpec,
    band_limit,
    cap_modes,
    equal_two_mode,
    evaluate,
    project_field,
    project_gaussian,
    superposition,
)

# stock geometry in natural units (hbar = m = unit length = 1)
WELL_HALF_WIDTH = 1.0
OMEGA = 10.0
HO_HALF_SPAN = 3.0
QUARTIC_HALF_SPAN = 1.25
REFLECT_HALF_WIDTH = 0.5
MZI_HALF_WIDTH = 2.0
MEASURE_TIME = 1.0 / 30.0
MZI_SPAN = 0.1
REFLECT_SPAN = 0.04
VORTEX_PAIRS = ((1, 2), (2, 1))
BARRIER_CLEARANCE = 1e-4
# the largest share of a pulse's norm its band_cap may drop (criterion 09's
# budget): past it the run would launch another packet than the config names
CAP_DROP_BUDGET = 1e-5


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved run parameters; defaults carry the stock values."""

    name: str
    grid_n: int
    modes: int
    frames: int = 64
    streamlines: int = 9
    eta: float = 1e-3
    tol: float = 0.01
    packet_center: float | None = None
    packet_momentum: float | None = None
    packet_width: float | None = None
    band_cap: int | None = None
    barrier_height: float | None = None
    barrier_width: float | None = None

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; choose from {SCENARIOS}")
        if self.grid_n < 3:
            raise ValueError("grid_n must be at least 3")
        if self.frames < 1 or self.modes < 1 or self.streamlines < 1:
            raise ValueError("frames, modes, and streamlines must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")


def default_config(name: str, **overrides) -> ScenarioConfig:
    """The stock config of a scenario, with the given fields replaced."""
    if name not in SCENARIO_TABLE:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    return ScenarioConfig(name=name, **{**SCENARIO_TABLE[name][1], **overrides})


# --------------------------------------------------------------- config I/O

_HINTS = typing.get_type_hints(ScenarioConfig)
# the value type of each ScenarioConfig field (int, float or str), as
# config files and command-line flags parse it, and the fields that take none
FIELD_TYPES = {k: (typing.get_args(h) or (h,))[0] for k, h in _HINTS.items()}
_NULLABLE = {k for k, h in _HINTS.items() if type(None) in typing.get_args(h)}


def config_to_text(c: ScenarioConfig) -> str:
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        v = getattr(c, f.name)
        if v is None:
            v = "none"
        elif isinstance(v, float):
            v = f"{v!r}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _parse_value(key: str, val: str):
    if val.lower() == "none" and key in _NULLABLE:
        return None
    kind = FIELD_TYPES[key]
    try:
        return kind(val)
    except ValueError:
        raise ValueError(f"bad {kind.__name__} for {key}: {val!r}") from None


# keys that config.txt files of earlier runs carry: the one value still
# accepted (what every run now does, so the key is dropped) and the
# refusal of any other
_RETIRED_KEYS = {
    "wide_barrier": ("false", "for the full-width/50 barrier set barrier_width = 0.08"),
    "write_fields": ("true", "every run writes its frame archive frames.npz"),
}


def config_from_text(text: str) -> ScenarioConfig:
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ValueError(f"config key {key!r} given twice")
        pairs[key] = val
    if "name" not in pairs:
        raise ValueError("config missing the scenario name")
    for key, (kept, refusal) in _RETIRED_KEYS.items():
        if pairs.pop(key, kept).lower() != kept:
            raise ValueError(f"{key} is gone: {refusal}")
    unknown = set(pairs) - set(FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return default_config(**{k: _parse_value(k, v) for k, v in pairs.items()})


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


def save_config(c: ScenarioConfig, path):
    with open(path, "w") as fh:
        fh.write(config_to_text(c))


# ------------------------------------------------------------- measurement


def _trapezoid(vals: np.ndarray, h: float) -> float:
    return float(np.sum(trapezoid_weights(vals.size, h) * vals))


def transmission(s: Superposition, t_measure: float) -> float:
    """Probability past the barrier's centre x = 0 at t_measure, for a 1D
    WellWithBarrier state whose packet has cleared the barrier: the grid
    points sample_potential raises must hold under BARRIER_CLEARANCE of
    the probability then (the split halves must have separated)."""
    g = s.grid
    pot = s.basis.potential
    if g.ndim != 1 or not isinstance(pot, WellWithBarrier):
        raise ValueError("transmission is a 1D measurement across a WellWithBarrier")
    rho = np.abs(evaluate(s, float(t_measure))) ** 2
    total = _trapezoid(rho, g.h)
    i_lo, i_hi = _barrier_span(pot, g)
    p_bar = _trapezoid(rho[i_lo : i_hi + 1], g.h) / total
    if p_bar >= BARRIER_CLEARANCE:
        raise ValueError(
            f"packet has not cleared the barrier: region [{g.x[i_lo]:g}, {g.x[i_hi]:g}] "
            f"holds probability {p_bar:.3e} at t = {t_measure:g}"
        )
    return _trapezoid(rho[g.x >= 0.0], g.h) / total


@dataclass(frozen=True)
class TuningResult:
    U0_star: float
    transmission: float
    iterations: int
    bracket: tuple
    history: tuple
    # the launch the probes projected, each probe's solved index window
    # (first, last, fell_back), and (probe, pairs) for each probe whose
    # basis kept LAPACK's pairs (its meta["unpolished"]); none of them is
    # part of tuning_record
    launch: Superposition | None = dataclasses.field(default=None, repr=False,
                                                     compare=False)
    probe_windows: tuple = dataclasses.field(default=(), repr=False, compare=False)
    unpolished_probes: tuple = dataclasses.field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.transmission):
            raise ValueError("transmission not finite")


def _required(c: ScenarioConfig, *fields) -> list:
    """The values of the named config fields; a field set to none is refused."""
    missing = [f for f in fields if getattr(c, f) is None]
    if missing:
        raise ValueError(f"{c.name} needs {', '.join(missing)}; the config sets none")
    return [getattr(c, f) for f in fields]


def _packet(c: ScenarioConfig) -> WavepacketSpec:
    return WavepacketSpec(*_required(c, "packet_center", "packet_momentum", "packet_width"))


def _free_packet(c: ScenarioConfig, half_width: float) -> Superposition:
    """The config's packet projected on the free well of half_width,
    band-capped: the launch of both pulse scenarios.  A cap that drops more
    than CAP_DROP_BUDGET of the packet's norm is refused."""
    grid = Grid1D(-half_width, half_width, c.grid_n)
    free = eigenbasis(InfiniteWell(half_width), grid, c.modes)
    sp = project_gaussian(free, _packet(c), eta=c.eta)
    if c.band_cap is not None:
        sp = cap_modes(sp, c.band_cap)
        dropped = sp.meta["cap_dropped_norm"]
        if dropped > CAP_DROP_BUDGET:
            raise ValueError(f"band_cap = {c.band_cap} drops {dropped:.3g} of the packet's "
                             f"norm, more than the budget {CAP_DROP_BUDGET}")
    return sp


def _launch_state(c: ScenarioConfig) -> Superposition:
    """The mzi_1d packet on the free well, as the tuner and the build take it."""
    return _free_packet(c, MZI_HALF_WIDTH)


def _splitter_state(c: ScenarioConfig, launch: Superposition, u0: float,
                    window: tuple | None = None, values=None) -> Superposition:
    """The launch projected on the barrier-well basis at height u0: on all
    c.modes states, or on the states first..last of window.  values are
    the launch on its grid at t = 0, evaluated here when not given: after
    the solve, because the evaluation's threaded BLAS call would leave an
    OpenBLAS worker spinning through it (about 17% more CPU time for a
    fixed-height mzi_1d run at two threads on a 2-vCPU Xeon)."""
    first, last = window or (0, c.modes - 1)
    pot = WellWithBarrier(MZI_HALF_WIDTH, float(u0), *_required(c, "barrier_width"))
    basis = eigenbasis(pot, launch.grid, last + 1, first=first)
    if values is None:
        values = evaluate(launch, 0.0)
    return project_field(basis, values, eta=c.eta)


# A tuner probe solves the barrier basis only from PROBE_BELOW states
# below the launch's lowest mode to PROBE_ABOVE above its highest, and
# keeps that window only if its projection leaves the PROBE_EDGE_CLEAR
# states inside each cut edge unkept; otherwise it solves in full.  On the
# stock mzi_1d config the full projection keeps states 56..106 over
# U0 = 250..16000 (edges at U0 = 3750 and 5500), at most 6 below the
# launch's modes 62..88 and 18 above; each margin is that reach plus
# PROBE_EDGE_CLEAR.
PROBE_BELOW = 12
PROBE_ABOVE = 24
PROBE_EDGE_CLEAR = 6


def _probe_state(c: ScenarioConfig, launch: Superposition, u0: float,
                 values=None) -> tuple:
    """The launch projected on the barrier-well states near its own modes
    at height u0, for a transmission probe, and the window solved as
    (first, last, fell_back).  The kept modes and captured norm are those
    of the full projection (_splitter_state), and T agrees with it to
    rounding.  values are the launch's grid values, as for
    _splitter_state."""
    first = max(int(launch.indices.min()) - PROBE_BELOW, 0)
    last = min(int(launch.indices.max()) + PROBE_ABOVE, c.modes - 1)
    state = _splitter_state(c, launch, u0, (first, last), values)
    kept = state.indices
    if ((first == 0 or kept.min() >= PROBE_EDGE_CLEAR)
            and (last == c.modes - 1 or kept.max() < state.basis.k - PROBE_EDGE_CLEAR)):
        return state, (first, last, False)
    del state  # its basis is freed before the full solve
    return _splitter_state(c, launch, u0, values=values), (0, c.modes - 1, True)


# bisection steps the tuner may take after its bracket, and the barrier
# heights its ladder spans (0 < low < high)
MAX_BISECT = 30
PROBE_RANGE = (250.0, 16000.0)


def tune_beam_splitter(c: ScenarioConfig) -> TuningResult:
    """Bisect the barrier height of an mzi_1d config until its packet
    splits 50/50 to within c.tol.

    Each probe solves the barrier-well states the packet can reach (an
    index window, see _probe_state) and re-projects the packet. A geometric
    ladder over PROBE_RANGE, doubling from its low end, first verifies a
    bracket with T(low) > 0.5 > T(high) and that T is decreasing across
    the probes.
    The result carries the packet as `launch`, each probe's window as
    `probe_windows` and the probes whose basis kept a LAPACK pair as
    `unpolished_probes`.
    """
    if c.tol <= 0:
        raise ValueError("tolerance must be positive")
    launch = _launch_state(c)
    values = evaluate(launch, 0.0)  # every probe projects the same values
    history = []
    windows = []
    unpolished = []

    def probe(u0: float) -> float:
        state, window = _probe_state(c, launch, u0, values)
        if "unpolished" in state.basis.meta:
            unpolished.append((len(history), tuple(state.basis.meta["unpolished"])))
        t = transmission(state, MEASURE_TIME)
        history.append((float(u0), float(t)))
        windows.append(window)
        return t

    def result(u0, t, iterations, bracket) -> TuningResult:
        return TuningResult(float(u0), float(t), iterations, bracket, tuple(history),
                            launch, tuple(windows), tuple(unpolished))

    lo, hi = PROBE_RANGE
    ladder = [lo]
    while ladder[-1] < hi:
        ladder.append(min(ladder[-1] * 2.0, hi))
    for u0 in ladder:
        t = probe(u0)
        if abs(t - 0.5) < c.tol:
            return result(u0, t, 0, (float(u0), float(u0)))
        if len(history) >= 2 and t > history[-2][1] + 1e-3:
            raise ValueError(
                f"transmission not decreasing across probes: {history}"
            )
        if len(history) >= 2 and history[-2][1] > 0.5 > t:
            break
    else:
        raise ValueError(
            f"no bracket with T(low) > 0.5 > T(high) in {PROBE_RANGE}; "
            f"probed (U0, T) pairs: {history}"
        )

    b_lo, b_hi = history[-2][0], history[-1][0]
    t_mid = None
    for it in range(1, MAX_BISECT + 1):
        mid = 0.5 * (b_lo + b_hi)
        t_mid = probe(mid)
        if abs(t_mid - 0.5) < c.tol:
            return result(mid, t_mid, it, (float(b_lo), float(b_hi)))
        if t_mid > 0.5:
            b_lo = mid
        else:
            b_hi = mid
    raise ValueError(
        f"bisection did not reach |T - 0.5| < {c.tol} in {MAX_BISECT} steps; "
        f"last bracket ({b_lo}, {b_hi}), last T {t_mid}"
    )


# ------------------------------------------------------------ construction


@dataclass
class ScenarioBundle:
    """In-memory scenario products: basis, states, and timing."""

    config: ScenarioConfig
    basis: EigenBasis
    states: list
    labels: list
    frame_times: np.ndarray
    frame_states: list
    span: tuple
    period: float | None
    tuning: TuningResult | None
    extras: dict


def _barrier_record(pot: WellWithBarrier, grid: Grid1D) -> dict:
    return {"height": pot.barrier_height, "width": pot.barrier_width,
            "width_on_grid": snapped_barrier_width(pot, grid)}


def _barrier_well(c: ScenarioConfig) -> WellWithBarrier:
    return WellWithBarrier(WELL_HALF_WIDTH, *_required(c, "barrier_height", "barrier_width"))


def _standing(half_span: float, potential, eigenstates: bool = False):
    """Builder of a standing-wave scenario on [-half_span, half_span]: the
    two lowest modes of potential(config), either as two stationary states
    or as their equal superposition sampled over one beat period."""

    def build(c: ScenarioConfig) -> ScenarioBundle:
        grid = Grid1D(-half_span, half_span, c.grid_n)
        basis = eigenbasis(potential(c), grid, c.modes)
        period = 2.0 * math.pi / (basis.energies[1] - basis.energies[0])
        if eigenstates:
            states = [superposition(basis, [0], [1.0]),
                      superposition(basis, [1], [1.0])]
            labels = ["mode_0", "mode_1"]
            frame_times, frame_states = np.zeros(2), [0, 1]
        else:
            states, labels = [equal_two_mode(basis, 0, 1)], ["state"]
            frame_times = np.arange(c.frames) * (period / c.frames)
            frame_states = [0] * c.frames
        return ScenarioBundle(c, basis, states, labels, frame_times,
                              frame_states, (0.0, period), period, None, {})

    return build


def _build_barrier_superposition(c: ScenarioConfig) -> ScenarioBundle:
    b = _standing(WELL_HALF_WIDTH, _barrier_well)(c)
    b.extras["barrier"] = _barrier_record(_barrier_well(c), b.basis.grid)
    return b


def _pulse_bundle(c, basis, state, span, tuning, extras) -> ScenarioBundle:
    frame_times = np.arange(c.frames) * (span[1] / c.frames)
    return ScenarioBundle(c, basis, [state], ["state"], frame_times,
                          [0] * c.frames, span, None, tuning, extras)


def _build_reflection(c: ScenarioConfig) -> ScenarioBundle:
    state = _free_packet(c, REFLECT_HALF_WIDTH)
    band = {
        "truncation_index": int(state.meta["truncation_index"]),
        "band_limit": band_limit(state),
        "cap_dropped_norm": state.meta.get("cap_dropped_norm", 0.0),
    }
    return _pulse_bundle(c, state.basis, state, (0.0, REFLECT_SPAN), None, {"band": band})


def _build_mzi(c: ScenarioConfig) -> ScenarioBundle:
    """Band-limited launch in the free well, re-projected onto the full
    barrier-well basis at the tuned (or given) height; a tuned build takes
    the tuner's launch, and solves U0* in full once more, since its probes
    solved index windows."""
    if c.barrier_height is None:
        tuning = tune_beam_splitter(c)
        launch, u0 = tuning.launch, tuning.U0_star
    else:
        tuning, launch, u0 = None, _launch_state(c), c.barrier_height
    state = _splitter_state(c, launch, u0)
    basis = state.basis
    extras = {
        "barrier": _barrier_record(basis.potential, basis.grid),
        "band": {
            "launch_truncation_index": int(launch.meta["truncation_index"]),
            "launch_cap_dropped_norm": launch.meta.get("cap_dropped_norm", 0.0),
            "truncation_index": int(state.meta["truncation_index"]),
            "band_limit": band_limit(state),
        },
        "round_trip": _round_trip_report(state, MZI_SPAN),
    }
    if tuning is not None:
        extras["tuning"] = tuning_record(tuning)
    return _pulse_bundle(c, basis, state, (0.0, MZI_SPAN), tuning, extras)


def _build_vortex(c: ScenarioConfig) -> ScenarioBundle:
    axis = Grid1D(0.0, 1.0, c.grid_n)
    basis = product_basis_2d(list(VORTEX_PAIRS), Grid2D(axis, axis))
    state = superposition(basis, [0, 1], np.array([1.0, 1.0j]) / math.sqrt(2.0))
    return ScenarioBundle(c, basis, [state], ["state"], np.array([0.0]), [0],
                          (0.0, 0.05), None, None, {})


# name -> (builder, stock config values, fixed settings); a scenario is one
# row.  A scenario reads grid_n, modes, frames, streamlines and its stock
# settings; a fixed setting is one it always builds at its stock value.
SCENARIO_TABLE = {
    "well_superposition": (
        _standing(WELL_HALF_WIDTH, lambda c: InfiniteWell(WELL_HALF_WIDTH)),
        dict(grid_n=2001, modes=4), ()),
    "well_barrier_superposition": (
        _build_barrier_superposition,
        dict(grid_n=2001, modes=6, barrier_height=15.0, barrier_width=0.2), ()),
    "ho_eigenstates": (
        _standing(HO_HALF_SPAN, lambda c: Harmonic(OMEGA), eigenstates=True),
        dict(grid_n=2001, modes=4, frames=2), ("frames",)),
    "ho_superposition": (
        _standing(HO_HALF_SPAN, lambda c: Harmonic(OMEGA)),
        dict(grid_n=2001, modes=4), ()),
    "quartic_eigenstates": (
        _standing(QUARTIC_HALF_SPAN, lambda c: QuarticDoubleWell(), eigenstates=True),
        dict(grid_n=2001, modes=6, frames=2), ("frames",)),
    "quartic_superposition": (
        _standing(QUARTIC_HALF_SPAN, lambda c: QuarticDoubleWell()),
        dict(grid_n=2001, modes=6), ()),
    "reflection_pulse": (
        _build_reflection,
        dict(grid_n=2001, modes=40, eta=1e-3, packet_center=0.0, packet_momentum=25.0,
             packet_width=0.08, band_cap=18), ()),
    "mzi_1d": (
        _build_mzi,
        dict(grid_n=2001, modes=140, eta=1e-3, tol=0.01, packet_center=-1.0,
             packet_momentum=60.0, packet_width=0.23, band_cap=89,
             barrier_height=None,  # none: tune it
             # one fiftieth of the unit length; the paper's alternate
             # reading, one fiftieth of the full well width, is 0.08
             barrier_width=0.02), ()),
    "vortex_2d": (
        _build_vortex,
        dict(grid_n=161, modes=2, frames=1, streamlines=4), ("frames", "modes")),
}
SCENARIOS = tuple(SCENARIO_TABLE)
_READ_BY_ALL = {"name", "grid_n", "modes", "frames", "streamlines"}


def build_scenario(c: ScenarioConfig) -> ScenarioBundle:
    """Construct the basis and state(s) for a config, tuning the splitter
    height when an mzi_1d config leaves it open.  A fixed setting at another
    value, or a setting the scenario does not read away from its
    ScenarioConfig default, is refused first, so the config a run records
    is the one it ran."""
    builder, stock, fixed = SCENARIO_TABLE[c.name]
    for f in fixed:
        if getattr(c, f) != stock[f]:
            raise ValueError(f"{c.name} always builds {stock[f]} {f[:-1]}(s); the config "
                             f"sets {f} = {getattr(c, f)}")
    unread = [f.name for f in dataclasses.fields(c)
              if f.name not in _READ_BY_ALL | set(stock) and getattr(c, f.name) != f.default]
    if unread:
        raise ValueError(f"{c.name} does not read {', '.join(unread)}; the config sets "
                         + ", ".join(f"{k} = {getattr(c, k)!r}" for k in unread))
    return builder(c)


# -------------------------------------------------------------- run bundle


def streamline_times(b: ScenarioBundle):
    """The times a scenario's streamlines are sampled at: its frame times
    when they strictly increase, else None (the default even steps)."""
    t_eval = np.asarray(b.frame_times, dtype=float)
    if t_eval.size < 2 or not (np.diff(t_eval) > 0).all():
        return None
    return t_eval


def tuning_record(r: TuningResult) -> dict:
    """A tuning result as stored in tuning.json and derived.tuning."""
    return {"U0_star": r.U0_star, "transmission": r.transmission,
            "iterations": r.iterations, "bracket": list(r.bracket),
            "history": [[u, t] for u, t in r.history]}


def vortex_record(state: Superposition, d: EnergyDecomposition) -> tuple:
    """(VortexProfile, derived.vortex) of the stock vortex analysis: the
    K_a profile of the state's t = 0 ledger d and circulations on radius
    0.1 about the box center."""
    center, r_max = (0.5, 0.5), 0.1
    profile = vortex_profile(d, center, r_max, 10)
    g = state.grid
    return profile, {
        "fit_exponent": float(profile.fit_exponent),
        "fit_Z": float(profile.fit_Z),
        "stencil_floor": 2.0 * max(g.grid_x.h, g.grid_y.h),
        "circulation_along_swirl": float(
            circulation(state, center, r_max, orientation=-1)),
        "circulation_counterclockwise": float(
            circulation(state, center, r_max, orientation=1)),
    }


def _round_trip_report(state: Superposition, t_end: float) -> dict:
    # the recombined packet exits a single port; for a symmetric lossless
    # barrier at 50/50 with equal arms that port is the far side (the
    # launch-port amplitude t^2 + r^2 vanishes), so the fraction is
    # reported per port rather than asserted for a particular side
    g = state.grid
    rho = np.abs(evaluate(state, t_end)) ** 2
    launch = g.x <= 0.0
    p_launch = _trapezoid(rho[launch], g.h) / _trapezoid(rho, g.h)
    return {
        "t": float(t_end),
        "launch_side_probability": p_launch,
        "far_side_probability": 1.0 - p_launch,
        "recombination_fraction": max(p_launch, 1.0 - p_launch),
        "exit_port": "launch" if p_launch >= 0.5 else "far",
    }


def _basis_record(basis: EigenBasis) -> dict:
    """derived.diagnostics.basis: how the basis was made, the first and last
    pair index it holds and, for a finite-difference one, its largest
    relative residual and the pairs that kept LAPACK's vector (unpolished),
    if any did."""
    rec = {"method": basis.meta["method"], "first": basis.first,
           "last": basis.first + basis.k - 1}
    if rec["method"] == "fd_tridiag":
        rec["max_residual"] = max_residual(basis)
    if "unpolished" in basis.meta:
        rec["unpolished"] = basis.meta["unpolished"]
    return rec


def run_scenario(c: ScenarioConfig, out_dir) -> dict:
    """Execute a scenario and write its deterministic bundle under out_dir:
    manifest.json, config.txt, the frame archive frames.npz (energy ledger
    and masks of every frame), streamlines (1D) or loops and the vortex
    profile (2D), and node events.  Returns the manifest."""
    b = build_scenario(c)
    os.makedirs(out_dir, exist_ok=True)

    save_config(c, os.path.join(out_dir, "config.txt"))
    table = frame_ledger([b.states[si] for si in b.frame_states], b.frame_times)
    write_frame_table(os.path.join(out_dir, "frames.npz"), b.frame_times, b.basis.grid, table)
    files: dict = {
        "config": "config.txt",
        "frame_table": "frames.npz",
        "frames": [{"index": i, "t": float(t), "state": b.labels[si]}
                   for i, (t, si) in enumerate(zip(b.frame_times, b.frame_states))],
    }
    state = b.states[0]
    if state.grid.ndim == 2:
        # _build_vortex's one frame is (state, t = 0), and a frame's ledger
        # has the same bits alone or in a stack
        vortex = vortex_record(state, frame_decomposition(b.basis.grid, table, 0))
    del table

    derived: dict = {
        "energies": [float(e) for e in b.basis.energies[: min(b.basis.k, 12)]],
        "span": [float(b.span[0]), float(b.span[1])],
        "frame_times": [float(t) for t in b.frame_times],
        "band_limits": [float(band_limit(s)) for s in b.states],
    }
    if b.period is not None:
        derived["period"] = float(b.period)
    derived.update(b.extras)

    diagnostics: dict = {"basis": _basis_record(b.basis), "node_search": {}}
    if state.grid.ndim == 2:
        seeds = loop_seeds_on_axis(state, c.streamlines, 0.5)
        te = np.linspace(0.0, 0.5, 129)
        qs = np.arange(1, c.streamlines + 1) / (c.streamlines + 1.0)
        diagnostics["loops"] = {}
        loops = integrate_loop_2d(state, [(0.5, y0) for y0 in seeds], (0.0, 0.5), t_eval=te,
                                  seed_quantiles=qs, diagnostics=diagnostics["loops"])
        loops_to_csv(loops, os.path.join(out_dir, "loops.csv"))
        files["loops"] = "loops.csv"
        profile, derived["vortex"] = vortex
        vortex_profile_to_csv(profile, os.path.join(out_dir, "vortex_profile.csv"))
        files["vortex_profile"] = "vortex_profile.csv"
        node_source, window, kw = state, b.span, {"nt": 9}
    else:
        lines = streamline_bundle(state, c.streamlines, b.span, t_eval=streamline_times(b))
        streamlines_to_csv(lines, os.path.join(out_dir, "streamlines.csv"))
        files["streamlines"] = "streamlines.csv"
        derived["streamline_flags"] = [
            {"seed_q": ln.seed_quantile, "t_flag": ln.t_flag}
            for ln in lines if ln.flagged
        ]
        node_source, window, kw = b.states[-1], b.span, {}
        if b.period is not None:
            # one period shifted off t = 0 so both generic events (phase
            # pi and 2 pi) sit strictly inside the window
            window = (b.period / 16.0, b.period * 17.0 / 16.0)

    events = find_nodes(node_source, window, diagnostics=diagnostics["node_search"], **kw)
    # one JSON form of the events for nodes.json and the manifest
    derived["node_events"] = node_events_to_json(events)
    write_json(os.path.join(out_dir, "nodes.json"), derived["node_events"])
    files["nodes"] = "nodes.json"
    if b.tuning is not None:
        diagnostics["tuning"] = {"probe_windows": [list(w) for w in b.tuning.probe_windows]}
        if b.tuning.unpolished_probes:
            diagnostics["tuning"]["unpolished_probes"] = [
                {"probe": i, "unpolished": list(pairs)} for i, pairs in b.tuning.unpolished_probes]
    derived["diagnostics"] = diagnostics

    manifest = {"name": c.name, "config": dataclasses.asdict(c),
                "derived": derived, "files": files}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest

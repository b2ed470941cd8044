"""Preset scenarios: the stock well / oscillator / double-well / pulse /
vortex configurations, transmission measurement, and 50/50 beam-splitter
tuning, with deterministic file bundles per run."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyDecomposition,
    decompose,
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
    save_node_events,
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
    eigenbasis,
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
BARRIER_HEIGHT = 15.0
BARRIER_WIDTH = 0.2
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
    wide_barrier: bool = False
    write_fields: bool = True

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

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def config_to_text(c: ScenarioConfig) -> str:
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        v = getattr(c, f.name)
        if v is None:
            v = "none"
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = f"{v!r}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ScenarioConfig:
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        pairs[key] = val
    if "name" not in pairs:
        raise ValueError("config missing the scenario name")
    known = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(pairs) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, val in pairs.items():
        if val.lower() == "none":
            out[key] = None
        elif key in ("name",):
            out[key] = val
        elif key in ("wide_barrier", "write_fields"):
            if val.lower() not in _BOOL_WORDS:
                raise ValueError(f"bad boolean for {key}: {val!r}")
            out[key] = _BOOL_WORDS[val.lower()]
        elif key in ("grid_n", "modes", "frames", "streamlines", "band_cap"):
            out[key] = int(val)
        else:
            out[key] = float(val)
    return default_config(**out)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


def save_config(c: ScenarioConfig, path):
    with open(path, "w") as fh:
        fh.write(config_to_text(c))


# ------------------------------------------------------------- measurement


def _trapezoid(vals: np.ndarray, h: float) -> float:
    return float(np.sum(trapezoid_weights(vals.size, h) * vals))


def transmission(s: Superposition, x_split: float, t_measure: float) -> float:
    """Probability beyond x_split once the packet has cleared the barrier.

    Requires the barrier region to hold under 1e-4 probability at the
    measurement time (the split halves must have separated).
    """
    g = s.grid
    if g.ndim != 1:
        raise ValueError("transmission is a 1D measurement")
    rho = np.abs(evaluate(s, float(t_measure)).values) ** 2
    total = _trapezoid(rho, g.h)
    pot = s.basis.potential
    if isinstance(pot, WellWithBarrier):
        half = 0.5 * pot.barrier_width
        lo, hi = -half, half
    else:
        lo, hi = x_split - 2 * g.h, x_split + 2 * g.h
    sel = (g.x >= lo) & (g.x <= hi)
    p_bar = _trapezoid(rho[sel], g.h) / total
    if p_bar >= BARRIER_CLEARANCE:
        raise ValueError(
            f"packet has not cleared the barrier: region [{lo:g}, {hi:g}] holds "
            f"probability {p_bar:.3e} at t = {t_measure:g}"
        )
    beyond = g.x >= x_split
    return _trapezoid(rho[beyond], g.h) / total


@dataclass(frozen=True)
class SplitterGeometry:
    """Barrier-well layout probed by the tuner."""

    grid: Grid1D
    modes: int
    barrier_width: float
    half_width: float = MZI_HALF_WIDTH
    x_split: float = 0.0
    t_measure: float = MEASURE_TIME
    band_cap: int | None = 89
    eta: float = 1e-3


@dataclass(frozen=True)
class TuningResult:
    U0_star: float
    transmission: float
    iterations: int
    bracket: tuple
    history: tuple
    # the launch, and the launch projected on the basis of the last probe,
    # which is always the one at U0_star; neither is part of tuning_record
    state: Superposition | None = dataclasses.field(default=None, repr=False,
                                                    compare=False)
    launch: Superposition | None = dataclasses.field(default=None, repr=False,
                                                     compare=False)

    def __post_init__(self):
        if not np.isfinite(self.transmission):
            raise ValueError("transmission not finite")


def _launch_state(geo: SplitterGeometry, packet: WavepacketSpec) -> Superposition:
    free = eigenbasis(InfiniteWell(geo.half_width), geo.grid, geo.modes)
    sp = project_gaussian(free, packet, eta=geo.eta)
    if geo.band_cap is not None:
        sp = cap_modes(sp, geo.band_cap)
    return sp


def _splitter_state(geo: SplitterGeometry, launch: Superposition,
                    u0: float) -> Superposition:
    """The launch projected on the barrier-well basis at height u0."""
    pot = WellWithBarrier(geo.half_width, float(u0), geo.barrier_width)
    basis = eigenbasis(pot, geo.grid, geo.modes)
    return project_field(basis, evaluate(launch, 0.0).values, eta=geo.eta)


# bisection steps the tuner may take after its bracket
MAX_BISECT = 30


def tune_beam_splitter(geometry: SplitterGeometry, packet: WavepacketSpec,
                       tol: float = 0.01,
                       probe_range: tuple = (250.0, 16000.0)) -> TuningResult:
    """Bisect the barrier height until the packet splits 50/50.

    Each probe re-solves the barrier-well eigenbasis and re-projects the
    packet. A geometric ladder over probe_range (0 < low < high), doubling
    from low, first verifies a bracket with T(low) > 0.5 > T(high) and that
    T is decreasing across the probes.
    The result carries the packet as `launch` and the last probe's
    projection of it as `state`.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = probe_range
    if not 0 < lo < hi:
        raise ValueError(f"probe range needs 0 < low < high, got {probe_range}")
    launch = _launch_state(geometry, packet)
    history = []
    last = None

    def probe(u0: float) -> float:
        nonlocal last
        # drop the previous probe's basis before the next solve: holding
        # both kept about 5 MB more resident through every later probe
        last = None
        last = _splitter_state(geometry, launch, u0)
        t = transmission(last, geometry.x_split, geometry.t_measure)
        history.append((float(u0), float(t)))
        return t

    ladder = [lo]
    while ladder[-1] < hi:
        ladder.append(min(ladder[-1] * 2.0, hi))
    pairs = []
    for u0 in ladder:
        t = probe(u0)
        if abs(t - 0.5) < tol:
            return TuningResult(float(u0), t, 0, (float(u0), float(u0)),
                                tuple(history), last, launch)
        pairs.append((u0, t))
        if len(pairs) >= 2 and pairs[-1][1] > pairs[-2][1] + 1e-3:
            raise ValueError(
                f"transmission not decreasing across probes: {pairs}"
            )
        if len(pairs) >= 2 and pairs[-2][1] > 0.5 > pairs[-1][1]:
            break
    else:
        raise ValueError(
            f"no bracket with T(low) > 0.5 > T(high) in {probe_range}; "
            f"probed (U0, T) pairs: {history}"
        )

    b_lo, b_hi = pairs[-2][0], pairs[-1][0]
    t_mid = None
    for it in range(1, MAX_BISECT + 1):
        mid = 0.5 * (b_lo + b_hi)
        t_mid = probe(mid)
        if abs(t_mid - 0.5) < tol:
            return TuningResult(float(mid), float(t_mid), it,
                                (float(b_lo), float(b_hi)), tuple(history), last, launch)
        if t_mid > 0.5:
            b_lo = mid
        else:
            b_hi = mid
    raise ValueError(
        f"bisection did not reach |T - 0.5| < {tol} in {MAX_BISECT} steps; "
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


def _barrier_width_for(c: ScenarioConfig) -> float:
    if c.wide_barrier:
        # alternate reading: one fiftieth of the full well width
        return MZI_HALF_WIDTH * 2.0 / 50.0
    if c.barrier_width is not None:
        return c.barrier_width
    return MZI_HALF_WIDTH * 2.0 / 4.0 / 50.0


def splitter_setup(c: ScenarioConfig) -> tuple:
    """(SplitterGeometry, WavepacketSpec) of an mzi_1d config: the barrier
    well the tuner probes and the packet it launches."""
    grid = Grid1D(-MZI_HALF_WIDTH, MZI_HALF_WIDTH, c.grid_n)
    geo = SplitterGeometry(grid, c.modes, _barrier_width_for(c), MZI_HALF_WIDTH,
                           band_cap=c.band_cap, eta=c.eta)
    return geo, WavepacketSpec(c.packet_center, c.packet_momentum, c.packet_width)


def _barrier_record(pot: WellWithBarrier, grid: Grid1D) -> dict:
    return {"height": pot.barrier_height, "width": pot.barrier_width,
            "width_on_grid": snapped_barrier_width(pot, grid)}


def _barrier_well(c: ScenarioConfig) -> WellWithBarrier:
    return WellWithBarrier(
        WELL_HALF_WIDTH,
        c.barrier_height if c.barrier_height is not None else BARRIER_HEIGHT,
        c.barrier_width if c.barrier_width is not None else BARRIER_WIDTH,
    )


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
    grid = Grid1D(-REFLECT_HALF_WIDTH, REFLECT_HALF_WIDTH, c.grid_n)
    basis = eigenbasis(InfiniteWell(REFLECT_HALF_WIDTH), grid, c.modes)
    packet = WavepacketSpec(c.packet_center, c.packet_momentum, c.packet_width)
    state = project_gaussian(basis, packet, eta=c.eta)
    if c.band_cap is not None:
        state = cap_modes(state, c.band_cap)
    band = {
        "truncation_index": int(state.meta["truncation_index"]),
        "band_limit": band_limit(state),
        "cap_dropped_norm": state.meta.get("cap_dropped_norm", 0.0),
    }
    return _pulse_bundle(c, basis, state, (0.0, REFLECT_SPAN), None, {"band": band})


def _build_mzi(c: ScenarioConfig) -> ScenarioBundle:
    """Band-limited launch in the free well, re-projected onto the barrier
    well at the tuned (or given) height; a tuned build takes the tuner's
    launch and last probe, which solved that height already."""
    geo, packet = splitter_setup(c)
    if c.barrier_height is None:
        tuning = tune_beam_splitter(geo, packet, tol=c.tol)
        launch, state = tuning.launch, tuning.state
    else:
        launch = _launch_state(geo, packet)
        tuning, state = None, _splitter_state(geo, launch, c.barrier_height)
    basis, pot = state.basis, state.basis.potential
    extras = {
        "barrier": {**_barrier_record(pot, geo.grid),
                    "width_rule": "full_width/50" if c.wide_barrier else "unit_length/50"},
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


# name -> (builder, stock config values); a scenario is one row
SCENARIO_TABLE = {
    "well_superposition": (
        _standing(WELL_HALF_WIDTH, lambda c: InfiniteWell(WELL_HALF_WIDTH)),
        dict(grid_n=2001, modes=4)),
    "well_barrier_superposition": (
        _build_barrier_superposition,
        dict(grid_n=2001, modes=6, barrier_height=BARRIER_HEIGHT,
             barrier_width=BARRIER_WIDTH)),
    "ho_eigenstates": (
        _standing(HO_HALF_SPAN, lambda c: Harmonic(OMEGA), eigenstates=True),
        dict(grid_n=2001, modes=4, frames=2)),
    "ho_superposition": (
        _standing(HO_HALF_SPAN, lambda c: Harmonic(OMEGA)),
        dict(grid_n=2001, modes=4)),
    "quartic_eigenstates": (
        _standing(QUARTIC_HALF_SPAN, lambda c: QuarticDoubleWell(), eigenstates=True),
        dict(grid_n=2001, modes=6, frames=2)),
    "quartic_superposition": (
        _standing(QUARTIC_HALF_SPAN, lambda c: QuarticDoubleWell()),
        dict(grid_n=2001, modes=6)),
    "reflection_pulse": (
        _build_reflection,
        dict(grid_n=2001, modes=40, packet_center=0.0, packet_momentum=25.0,
             packet_width=0.08, band_cap=18)),
    "mzi_1d": (
        _build_mzi,
        dict(grid_n=2001, modes=140, packet_center=-1.0, packet_momentum=60.0,
             packet_width=0.23, band_cap=89,
             barrier_width=MZI_HALF_WIDTH * 2.0 / 4.0 / 50.0)),
    "vortex_2d": (
        _build_vortex,
        dict(grid_n=161, modes=2, frames=1, streamlines=4)),
}
SCENARIOS = tuple(SCENARIO_TABLE)


def build_scenario(c: ScenarioConfig) -> ScenarioBundle:
    """Construct the basis and state(s) for a config, tuning the splitter
    height when an mzi_1d config leaves it open."""
    return SCENARIO_TABLE[c.name][0](c)


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
    rho = np.abs(evaluate(state, t_end).values) ** 2
    launch = g.x <= 0.0
    p_launch = _trapezoid(rho[launch], g.h) / _trapezoid(rho, g.h)
    return {
        "t": float(t_end),
        "launch_side_probability": p_launch,
        "far_side_probability": 1.0 - p_launch,
        "recombination_fraction": max(p_launch, 1.0 - p_launch),
        "exit_port": "launch" if p_launch >= 0.5 else "far",
    }


def run_scenario(c: ScenarioConfig, out_dir) -> dict:
    """Execute a scenario and write its deterministic bundle under out_dir:
    manifest.json, config.txt, the frame archive frames.npz (energy ledger
    and masks of every frame), streamlines (1D) or loops and the vortex
    profile (2D), and node events.  Returns the manifest."""
    b = build_scenario(c)
    os.makedirs(out_dir, exist_ok=True)

    files: dict = {"config": "config.txt", "frames": []}
    save_config(c, os.path.join(out_dir, "config.txt"))

    state = b.states[0]
    vortex = None  # (VortexProfile, derived.vortex) of a 2D run
    if c.write_fields:
        table = frame_ledger([b.states[si] for si in b.frame_states], b.frame_times)
        write_frame_table(os.path.join(out_dir, "frames.npz"), b.frame_times, b.basis.grid, table)
        files["frame_table"] = "frames.npz"
        files["frames"] = [{"index": i, "t": float(t), "state": b.labels[si]}
                           for i, (t, si) in enumerate(zip(b.frame_times, b.frame_states))]
        if state.grid.ndim == 2 and b.frame_states[0] == 0 and b.frame_times[0] == 0.0:
            # frame 0 is (state, t = 0), and a frame's ledger has the same
            # bits alone or in a stack
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

    diagnostics: dict = {"node_search": {}}
    if state.grid.ndim == 2:
        seeds = loop_seeds_on_axis(state, c.streamlines, 0.5)
        te = np.linspace(0.0, 0.5, 129)
        qs = np.arange(1, c.streamlines + 1) / (c.streamlines + 1.0)
        diagnostics["loops"] = {}
        loops = integrate_loop_2d(state, [(0.5, y0) for y0 in seeds], (0.0, 0.5), t_eval=te,
                                  seed_quantiles=qs, diagnostics=diagnostics["loops"])
        loops_to_csv(loops, os.path.join(out_dir, "loops.csv"))
        files["loops"] = "loops.csv"
        if vortex is None:
            vortex = vortex_record(state, decompose(state, 0.0))
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
    save_node_events(events, os.path.join(out_dir, "nodes.json"))
    files["nodes"] = "nodes.json"
    derived["node_events"] = node_events_to_json(events)
    derived["diagnostics"] = diagnostics

    manifest = {"name": c.name, "config": dataclasses.asdict(c),
                "derived": derived, "files": files}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest

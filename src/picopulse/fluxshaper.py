"""Circuit-level synthesis of the control waveform.

The control pulse is shaped in two stages:

1. A fluxon (2*pi sine-Gordon kink) propagates along a long Josephson
   junction, ``phi_tt - phi_xx + sin(phi) = -alpha(x) phi_t + i_b``, in
   normalized units (space in Josephson lengths, time in inverse plasma
   frequencies).  The phase difference between two tap points on the junction
   gives a flat-top flux pulse in the coupling loop whose duration is set by
   the fluxon transit time, i.e. by the bias current i_b.

2. A symmetric pair of single-junction interferometers, one with a
   conventional junction (critical current 1) and one with a magnetically
   tunable junction (critical current ic1), converts the loop flux into an
   output current.  At ic1 = 1 the circuit is balanced and the output is
   identically zero; detuning ic1 sets the output amplitude.

The kink is oriented so that a positive bias drives it toward +x, and the
topological charge is measured as (phi(0) - phi(L)) / 2*pi so that it equals
+1 for the launched fluxon.  The far end of the junction carries a ramp of
increased damping to absorb the fluxon instead of reflecting it.

No published node equations exist for the amplitude stage; the lumped model
here is the minimal overdamped circuit with the balance point at ic1 = 1:

    alpha_j dphi_k/dt = -ic_k sin(phi_k) - (phi_k - phi_ext(t)) / l

with phi_ext = (loop flux)/4 applied symmetrically to both loops (a quarter
of the loop flux couples into each interferometer, placing the pi/2 working
point at the peak of the sin(phi) response) and the output current given by
the difference of the two circulating currents, (phi_1 - phi_0)/l.  The
defining contracts are the exact null at ic1 = 1 and monotone amplitude
control away from it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dynamics
from .dynamics import Schedule, evolve_state


class FluxonStalled(RuntimeError):
    """The fluxon failed to reach the far boundary within ``LJJConfig.wait``."""


def _require_finite(cfg) -> None:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


# RK4 substeps of the whole amplitude stage beyond which it is refused as a config error:
# the default junction's 452 samples take ~2e6 at alpha_j = 1e-3, which still runs
_AMP_SUBSTEPS_MAX = 1e7

# grid points times leapfrog steps beyond which an LJJ run is refused: the default
# junction's 801 points over ~14,000 steps make 1.1e7
_POINT_STEPS_MAX = 1e9


@dataclass(frozen=True)
class LJJConfig:
    """Long-junction geometry and drive, in normalized units."""

    i_b: float = 0.2
    length: float = 40.0
    alpha: float = 0.05
    dx: float = 0.05
    dt: float | None = None
    x1: float = 8.0
    x2: float = 32.0
    kink_position: float = 6.0
    initial_velocity: float | None = None  # None -> launch at the power-balance velocity
    absorber_width: float = 4.0
    absorber_alpha: float = 2.0
    t_max: float | None = None
    require_exit: bool = True

    def __post_init__(self):
        _require_finite(self)
        if self.length < 16.0:
            raise ValueError("junction must be at least 16 Josephson lengths "
                             "(several fluxon widths)")
        if not 0.0 <= self.i_b < 1.0:
            raise ValueError(f"normalized bias must be in [0, 1), got {self.i_b}")
        for name in ("alpha", "absorber_alpha", "absorber_width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.x1 < self.x2 < self.length:
            raise ValueError("tap positions must satisfy 0 < x1 < x2 < length")
        # the grid is i * spacing, i = 0 .. length / spacing, and a tap takes its nearest point;
        # a length / dx that overflows to inf gives a spacing of 0
        if not (self.dx > 0 and self.spacing > 0):
            raise ValueError(f"dx = {self.dx} must be > 0 and leave length / dx finite")
        tap1, tap2, cells = (round(v / self.spacing, 0) for v in (self.x1, self.x2, self.length))
        if not 0 < tap1 < tap2 < cells:
            raise ValueError(f"dx = {self.dx} must put the taps x1 and x2 on distinct "
                             "interior grid points")
        if self.step > 0.5 * self.spacing:
            raise ValueError(f"dt = {self.step:.4g} violates the CFL bound "
                             f"0.5 * spacing = {0.5 * self.spacing:.4g}")
        if not 0.0 < self.kink_position < self.length:
            raise ValueError(f"kink_position = {self.kink_position} must lie inside the "
                             f"junction, between 0 and length = {self.length}")
        if self.initial_velocity is not None and abs(self.initial_velocity) >= 1.0:
            raise ValueError("initial velocity must be below the Swihart velocity (1)")
        for name, value in (("dt", self.dt), ("t_max", self.t_max)):  # None: the default
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        # an exit stops the solve 10 time units later: only the wait for it adds steps
        points, steps = cells + 1, self.wait / self.step  # floats: they may overflow to inf
        if not points * steps <= _POINT_STEPS_MAX:
            count = "t_max / dt" if self.wait == self.t_max else "dt"
            raise ValueError(f"length / dx gives {points:.3g} grid points, which over {steps:.3g}"
                             f" steps of {count} make more than {_POINT_STEPS_MAX:.0e} point-steps")
        if not math.isfinite(self.time_budget / self.step):
            raise ValueError(f"the step count t_max / dt = {self.time_budget / self.step} "
                             "is not finite")

    @property
    def spacing(self) -> float:
        """The grid's spacing: length over the whole number of cells nearest length / dx,
        at least one.  The solve steps on it."""
        return self.length / max(round(self.length / self.dx, 0), 1.0)

    @property
    def step(self) -> float:
        return 0.25 * self.spacing if self.dt is None else self.dt

    @property
    def launch_velocity(self) -> float:
        if self.initial_velocity is not None:
            return self.initial_velocity
        return min(power_balance_velocity(self.i_b, self.alpha), 0.995)

    @property
    def wait(self) -> float:
        """The longest the solve runs without an exit: a fluxon that must exit waits no
        longer than the default budget, whatever t_max."""
        if self.require_exit:
            return min(self.time_budget, self._default_budget)
        return self.time_budget

    @property
    def time_budget(self) -> float:
        return self._default_budget if self.t_max is None else self.t_max

    @property
    def _default_budget(self) -> float:
        u = max(power_balance_velocity(self.i_b, self.alpha), 0.05)
        return 3.0 * self.length / u + 50.0


@dataclass(frozen=True)
class InterferometerConfig:
    """Lumped twin-interferometer amplitude stage, in normalized units."""

    ic1: float = 0.7
    alpha_j: float = 3.0
    inductance: float = 0.2

    def __post_init__(self):
        _require_finite(self)
        if self.ic1 < 0:
            raise ValueError("ic1 must be >= 0")
        if self.alpha_j <= 0 or self.inductance <= 0:
            raise ValueError("alpha_j and inductance must be > 0")


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real control signal."""

    dt: float
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"sample period must be finite and > 0, got {self.dt}")
        samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples))

    @property
    def duration(self) -> float:
        return self.dt * len(self.samples)


@dataclass(frozen=True)
class LJJResult:
    times: np.ndarray          # saved frame times
    taps: np.ndarray           # frames x 2: phi at the grid points nearest x1 and x2
    positions: np.ndarray      # fluxon position per frame (nan once exited)
    velocity: float
    charge_drift: float        # max |charge - 1| while the fluxon is in-domain
    exited: bool


def power_balance_velocity(i_b: float, alpha: float) -> float:
    """Steady fluxon velocity from the drive/dissipation power balance.

    u = 1 / sqrt(1 + (4 alpha / (pi i_b))^2); independent closed form used as
    an oracle for the PDE solver.
    """
    if i_b <= 0:
        return 0.0
    return 1.0 / math.sqrt(1.0 + (4.0 * alpha / (math.pi * i_b)) ** 2)


def _config_hash(*cfgs) -> str:
    return hashlib.sha256("|".join(repr(c) for c in cfgs).encode()).hexdigest()[:12]


def _kink_profile(x: np.ndarray, x0: float, u: float, t: float, offset: float) -> np.ndarray:
    w = math.sqrt(1.0 - u * u)
    return 4.0 * np.arctan(np.exp(-(x - x0 - u * t) / w)) + offset


def _crossing(x: np.ndarray, i, f0, f1, level: float):
    """Where phi, first below ``level`` at x[i], crosses it, interpolated linearly from
    f0 = phi[i-1] and f1 = phi[i]; nan where i = 0 (no crossing)."""
    found = i > 0
    # where found, f0 >= level > f1, so the division is safe
    frac = np.divide(f0 - level, f0 - f1, out=np.zeros_like(f0), where=found)
    return np.where(found, x[i - 1] + frac * (x[i] - x[i - 1]), math.nan)


def simulate_ljj_fluxon(cfg: LJJConfig) -> LJJResult:
    """Integrate the damped, biased sine-Gordon equation for a launched fluxon.

    Explicit leapfrog in the interior with semi-implicit damping and Neumann
    ends; returns the phases at the taps and the fluxon position per saved frame.
    """
    return _leapfrog(cfg)


def _leapfrog(cfg: LJJConfig, on_frame=None) -> LJJResult:
    """The solve, calling ``on_frame(phi, phi_next, phi_prev)`` on each saved frame's views."""
    dx, dt = cfg.spacing, cfg.step
    n = round(cfg.length / dx) + 1
    total = math.ceil(cfg.time_budget / dt)  # frames are spaced over the whole budget
    nsteps = math.ceil(cfg.wait / dt)  # an exit moves this bound
    stride = max(1, total // 2000)
    x = np.linspace(0.0, cfg.length, n)
    offset = math.asin(cfg.i_b)
    u0 = cfg.launch_velocity
    phi = _kink_profile(x, cfg.kink_position, u0, 0.0, offset)
    phi_prev = _kink_profile(x, cfg.kink_position, u0, -dt, offset)

    alpha_x = np.full(n, cfg.alpha)
    if cfg.absorber_width > 0:
        # clipped before the division, which a width such as 5e-324 would overflow
        ramp = np.clip(x - (cfg.length - cfg.absorber_width), 0.0, cfg.absorber_width)
        alpha_x = alpha_x + cfg.absorber_alpha * (ramp / cfg.absorber_width)**2

    # the exit test runs at least once per plasma period (2 pi), whatever the stride
    every = min(stride, max(1, int(2.0 * math.pi / dt)))
    exit_x = cfg.length - cfg.absorber_width - 2.0
    level = math.pi + offset  # mid-kink phase level

    # per saved frame: phi at x1, x2 and both ends, and phi[i-1], phi[i] around a crossing
    cols = np.array([round(cfg.x1 / dx), round(cfg.x2 / dx), 0, n - 1, 0, 0])
    kept = np.empty((-(-total // stride), len(cols)))
    crossings = np.empty(len(kept), dtype=np.intp)
    count = 0
    exited = False
    damp_plus, damp_minus = 1.0 + 0.5 * alpha_x * dt, 1.0 - 0.5 * alpha_x * dt
    dx2, dt2 = dx**2, dt**2
    lap, force, phi_next, tmp = (np.empty(n) for _ in range(4))
    inner = lap[1:-1]

    step = 0
    while step < nsteps:
        # in place, in this order: lap = phi_xx, force = lap - sin(phi) + i_b,
        # phi_next = (2 phi - damp_minus phi_prev + dt^2 force) / damp_plus
        np.multiply(2.0, phi, out=phi_next)  # 2 phi, exact: shared by lap and the update
        np.subtract(phi[2:], phi_next[1:-1], out=inner)
        np.divide(np.add(inner, phi[:-2], out=inner), dx2, out=inner)
        lap[0] = 2.0 * (phi[1] - phi[0]) / dx2
        lap[-1] = 2.0 * (phi[-2] - phi[-1]) / dx2
        np.add(np.subtract(lap, np.sin(phi, out=force), out=force), cfg.i_b, out=force)
        np.subtract(phi_next, np.multiply(damp_minus, phi_prev, out=tmp), out=phi_next)
        np.add(phi_next, np.multiply(dt2, force, out=tmp), out=phi_next)
        np.divide(phi_next, damp_plus, out=phi_next)

        saved = step % stride == 0
        test = not exited and step % every == 0
        if saved or test:
            i = int(np.argmax(phi < level))  # 0 if no point is below, or the first one is
        if saved:
            if not np.isfinite(phi_next).all():
                raise RuntimeError("sine-Gordon integration diverged")
            cols[4:] = i - 1, i  # i = 0 reads phi[-1], unused
            np.take(phi, cols, out=kept[count], mode="wrap")
            crossings[count] = i
            if on_frame is not None:
                on_frame(phi, phi_next, phi_prev)
            count += 1
        # no crossing (i = 0) is an exit; a crossing lies in (x[i-1], x[i]],
        # so only one that reaches exit_x needs its interpolated position
        if test and (i == 0 or (x[i] >= exit_x
                                and _crossing(x, i, phi[i - 1], phi[i], level) >= exit_x)):
            exited = True
            # keep integrating a little so the tap waveform settles
            nsteps = min(total, step + int(10.0 / dt))
        phi_prev, phi, phi_next = phi, phi_next, phi_prev
        step += 1
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("sine-Gordon integration diverged")

    if cfg.require_exit and not exited:
        raise FluxonStalled(
            f"fluxon did not reach x = {exit_x:.1f} within the wait t = {cfg.wait:.4g} "
            f"(i_b = {cfg.i_b})")

    kept = kept[:count]
    times = (np.arange(count, dtype=float) * stride) * dt  # stride may pass int64
    positions = _crossing(x, crossings[:count], kept[:, 4], kept[:, 5], level)
    # topological charge from endpoint phases, smoothed over one plasma period
    # to remove the (physical, non-topological) boundary plasma ringing
    charge = (kept[:, 2] - kept[:, 3]) / (2.0 * math.pi)
    win = max(1, int(round(2.0 * math.pi / (stride * dt))))  # frames per plasma period
    if len(charge) >= win:
        smooth = np.convolve(charge, np.ones(win) / win, mode="valid")
        in_domain = positions[win - 1:] < exit_x  # nan once exited
        charge_drift = float(np.max(np.abs(smooth[in_domain] - 1.0))) \
            if np.any(in_domain) else float(np.max(np.abs(smooth - 1.0)))
    else:
        charge_drift = float(np.max(np.abs(charge - 1.0)))
    window = (positions > cfg.kink_position + 4.0) & (positions < exit_x - 1.0)  # nan: False
    velocity = (float(np.polyfit(times[window], positions[window], 1)[0])
                if np.count_nonzero(window) >= 3 else math.nan)
    return LJJResult(times=times, taps=kept[:, :2], positions=positions,
                     velocity=velocity, charge_drift=charge_drift, exited=exited)


def field_energy(cfg: LJJConfig) -> np.ndarray:
    """Discrete sine-Gordon energy per saved frame of the solve of ``cfg``, without the
    bias term, summed as the solve runs."""
    dx = cfg.spacing
    energies = []

    def add(phi, phi_next, phi_prev):
        phi_t = (phi_next - phi_prev) / (2.0 * cfg.step)
        dens = 0.5 * phi_t**2 + 0.5 * np.gradient(phi, dx)**2 + (1.0 - np.cos(phi))
        energies.append(np.sum(dens))

    _leapfrog(cfg, add)
    return np.array(energies) * dx


def loop_flux_waveform(result: LJJResult, cfg: LJJConfig) -> Waveform:
    """Flux in the coupling loop vs. time: phase difference between the taps.

    Rises to about 2*pi while the fluxon sits between the taps and returns
    near zero after it exits.
    """
    samples = result.taps[:, 0] - result.taps[:, 1]
    samples = samples - samples[0]
    dt = float(result.times[1] - result.times[0]) if len(result.times) > 1 else cfg.step
    return Waveform(dt=dt, samples=samples,
                    meta={"stage": "loop-flux", "config": _config_hash(cfg)})


def plateau_duration(wave: Waveform, level: float = 0.5) -> float:
    """Width of the flat-top pulse at the given fraction of its peak.

    Crossing times are linearly interpolated between samples so the width
    resolution is finer than the sample period.
    """
    s = np.abs(wave.samples)
    peak = float(np.max(s)) if len(s) else 0.0
    if peak == 0.0:
        return 0.0
    thr = level * peak
    above = np.nonzero(s >= thr)[0]
    first, last = above[0], above[-1]
    t_rise = float(first)
    if first > 0:
        t_rise = first - (s[first] - thr) / (s[first] - s[first - 1])
    t_fall = float(last)
    if last < len(s) - 1:
        t_fall = last + (s[last] - thr) / (s[last] - s[last + 1])
    return (t_fall - t_rise) * wave.dt


def simulate_amplitude_stage(wave: Waveform, cfg: InterferometerConfig) -> Waveform:
    """Drive the twin interferometers with the loop flux; return the output current.

    Each phase is a Python float stepped by ``dynamics.rk4_step`` with ``math.sin``."""
    substeps = wave.dt / 0.02 / cfg.alpha_j * len(wave.samples)  # alpha_j > 0: no division by 0
    if not substeps <= _AMP_SUBSTEPS_MAX:
        raise ValueError(f"alpha_j = {cfg.alpha_j} needs {substeps:.3g} RK4 substeps over "
                         f"{len(wave.samples)} samples, more than {_AMP_SUBSTEPS_MAX:.0e}")
    phi_ext = (0.25 * wave.samples).tolist()  # Python floats: cheaper than numpy scalars per substep
    nsub = max(1, int(math.ceil(wave.dt / (0.02 * cfg.alpha_j))))
    h, inductance, alpha_j, step = wave.dt / nsub, cfg.inductance, cfg.alpha_j, dynamics.rk4_step
    p0 = p1 = 0.0
    diffs = []  # p1 - p0 at the start of each sample

    def rhs(ic):  # the drive is linear from ext0 to ext1 over the substeps s of sample i
        def f(frac, p):
            ext = ext0 + (ext1 - ext0) * ((s + frac) / nsub)
            return (-ic * math.sin(p) - (p - ext) / inductance) / alpha_j
        return f

    rhs0, rhs1 = rhs(1.0), rhs(cfg.ic1)
    try:
        for i in range(len(phi_ext)):
            diffs.append(p1 - p0)
            ext0, ext1 = phi_ext[i], phi_ext[min(i + 1, len(phi_ext) - 1)]
            for s in range(nsub):
                p0 = step(rhs0, p0, h)
                p1 = step(rhs1, p1, h)
            if not (math.isfinite(p0) and math.isfinite(p1)):  # a nan: math.sin(nan) does not raise
                raise RuntimeError(f"amplitude stage diverged at sample {i}")
    except ValueError:  # math.sin(inf) raises: a phase overflowed during sample i
        raise RuntimeError(f"amplitude stage diverged at sample {i}") from None
    return Waveform(dt=wave.dt, samples=np.array(diffs) / inductance,
                    meta={"stage": "amplitude", "config": _config_hash(cfg),
                          "input": wave.meta.get("config", "")})


def peak_amplitude(wave: Waveform) -> float:
    """Signed sample of largest magnitude."""
    i = int(np.argmax(np.abs(wave.samples)))
    return float(wave.samples[i])


# a topological charge farther than this from 1 is not one fluxon
CHARGE_DRIFT_MAX = 0.5


def shape_control_pulse(ljj: LJJConfig, amp: InterferometerConfig,
                        energy_scale: float, time_scale: float = 1.0) -> Waveform:
    """Full pipeline: fluxon -> loop flux -> amplitude stage -> drive waveform.

    ``energy_scale`` converts the normalized output current into an angular
    drive amplitude (rad/ns); ``time_scale`` converts one normalized time unit
    into ns (set by the junction plasma frequency); both must be finite and
    > 0 (checked before the LJJ solve), and ``time_scale`` must keep the
    sample period > 0 and the duration finite.  The fluxon's ``velocity``
    and ``charge_drift`` from the LJJ solve are handed out in ``meta``; a
    non-finite one, a drift past :data:`CHARGE_DRIFT_MAX` or a velocity
    outside (0, 1) raises ``ArithmeticError`` before the amplitude stage.
    """
    for name, scale in (("energy_scale", energy_scale), ("time_scale", time_scale)):
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError(f"{name} must be finite and > 0, got {scale}")
    result = simulate_ljj_fluxon(ljj)
    bad = [k for k in ("velocity", "charge_drift") if not math.isfinite(getattr(result, k))]
    if bad:  # the CLI's summary.json, written from these, takes no nan
        raise ArithmeticError(f"summary.json's {', '.join(bad)} is not finite")
    if result.charge_drift > CHARGE_DRIFT_MAX:
        raise ArithmeticError(f"charge_drift = {result.charge_drift:.3g} exceeds "
                              f"{CHARGE_DRIFT_MAX}: the junction no longer holds one fluxon")
    if not 0 < result.velocity < 1:  # at 1, the Swihart velocity, the grid is too coarse
        raise ArithmeticError(f"velocity = {result.velocity:.5g} is not in (0, 1): the "
                              "fluxon did not travel toward the far end, or outran the grid")
    loop = loop_flux_waveform(result, ljj)
    current = simulate_amplitude_stage(loop, amp)
    dt = current.dt * time_scale
    if not (dt > 0 and math.isfinite(dt * len(current.samples))):
        raise ValueError(f"time_scale = {time_scale} puts the sample period at {dt} ns")
    return Waveform(dt=dt, samples=energy_scale * current.samples,
                    meta={"stage": "control", "config": _config_hash(ljj, amp),
                          "energy_scale": energy_scale, "time_scale": time_scale,
                          "velocity": result.velocity, "charge_drift": result.charge_drift})


def duration_vs_bias(template: LJJConfig, biases) -> np.ndarray:
    """Columns (i_b, plateau duration); stalled points carry nan durations."""
    rows = []
    for i_b in np.asarray(biases, dtype=float):
        cfg = replace(template, i_b=float(i_b))
        try:
            result = simulate_ljj_fluxon(cfg)
        except FluxonStalled:
            rows.append((i_b, math.nan))
            continue
        rows.append((i_b, plateau_duration(loop_flux_waveform(result, cfg))))
    return np.array(rows)


def amplitude_vs_ic1(template: InterferometerConfig, ic1_values,
                     input_wave: Waveform) -> np.ndarray:
    """Columns (ic1, signed peak output amplitude) for a fixed input flux pulse."""
    ic1_values = np.asarray(ic1_values, dtype=float)
    if len(ic1_values) < 1:
        raise ValueError("need at least one ic1 value")
    rows = []
    for ic1 in ic1_values:
        cfg = replace(template, ic1=float(ic1))
        out = simulate_amplitude_stage(input_wave, cfg)
        rows.append((ic1, peak_amplitude(out)))
    return np.array(rows)


def waveform_segments(wave: Waveform, max_segments: int = 150) -> list[tuple[float, float]]:
    """Block-average a waveform into (duration, value) pairs for a schedule.

    Leading and trailing samples below 1e-6 of the peak are trimmed;
    zero-duration output means the waveform is effectively null.
    """
    s = wave.samples
    peak = float(np.max(np.abs(s))) if len(s) else 0.0
    if peak == 0.0:
        return []
    keep = np.nonzero(np.abs(s) >= 1e-6 * peak)[0]
    s = s[keep[0]:keep[-1] + 1]
    block = max(1, int(math.ceil(len(s) / max_segments)))
    pairs = []
    for start in range(0, len(s), block):
        chunk = s[start:start + block]
        pairs.append((len(chunk) * wave.dt, float(np.mean(chunk))))
    return pairs


# ---------------------------------------------------------------------------
# end-to-end demonstration


@dataclass(frozen=True)
class DemoResult:
    target: str
    fidelity: float
    params: np.ndarray          # (scale1, scale2, tail duration)
    converged: bool
    iterations: int             # objective evaluations of the calibration
    schedule: Schedule
    waveform: Waveform
    trajectory: object          # dynamics.Trajectory over the final schedule


def target_state(name: str) -> np.ndarray:
    """Named two-qubit targets reachable by the shaped-pulse demonstration.

    ``inversion``: |dd> -> |uu>.  ``entangled``: |dd> -> (|du> + |uu>)/sqrt(2),
    i.e. qubit 1 inverted and qubit 2 in an equal superposition.
    """
    if name == "inversion":
        psi = np.zeros(4, dtype=complex)
        psi[3] = 1.0
        return psi
    if name == "entangled":
        psi = np.zeros(4, dtype=complex)
        psi[2] = psi[3] = 1.0 / math.sqrt(2.0)
        return psi
    raise ValueError(f"unknown demo target {name!r}")


def end_to_end_demo(target: str, delta: float = math.tau * 0.25, j: float = 0.3,
                    ljj: LJJConfig | None = None,
                    amp: InterferometerConfig | None = None,
                    time_scale: float = 1e-3, tol: float = 5e-3,
                    max_segments: int = 120) -> DemoResult:
    """Shape a realistic pulse and calibrate it onto a two-qubit target.

    One circuit-shaped waveform (finite rise/fall) drives qubit 1 and then
    qubit 2, with the coupling ``j`` left on during the pulses; a final
    coupling-free delay sets the relative phase of the superposition targets.
    The parameters (per-pulse amplitude scales and the delay) are calibrated
    from analytic seeds, except the delay for ``inversion``, on which |uu>
    fidelity does not depend.  The reported fidelity comes from a fresh
    propagation at the calibrated parameters.
    """
    from .protocols import calibrate_pulse

    for name, value in (("delta", delta), ("j", j)):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} must be finite")
    if delta and not math.isfinite(math.tau / abs(delta)):
        raise ValueError(f"delta = {delta} leaves the delay bound 2*pi/|delta| infinite")
    goal = target_state(target)
    ljj = ljj or LJJConfig()
    amp = amp or InterferometerConfig()
    wave = shape_control_pulse(ljj, amp, energy_scale=1.0, time_scale=time_scale)
    pairs = waveform_segments(wave, max_segments=max_segments)
    if not pairs:
        raise RuntimeError("shaped waveform is null; check the amplitude stage config")
    signed_area = sum(d * v for d, v in pairs)
    n = len(pairs)
    durations = np.array([d for d, _ in pairs] * 2 + [0.0])
    values = np.array([v for _, v in pairs])

    def build(p: np.ndarray) -> Schedule:
        # qubit 1 driven by the shaped pulse, then qubit 2, coupling on; then a free tail
        s1, s2, tail = p
        controls = np.zeros((2 * n + 1, 3))
        controls[:n, 0] = s1 * values
        controls[n:2 * n, 1] = s2 * values
        controls[:2 * n, 2] = j
        durations[-1] = max(tail, 1e-6)
        return Schedule.from_arrays(delta, durations, controls, delta2=delta, dimension=4)

    s1_seed = math.pi / signed_area
    s2_seed = s1_seed if target == "inversion" else 0.5 * s1_seed
    tail_seed = 0.5 * math.pi / delta if delta else 1e-3
    seed = np.array([s1_seed, s2_seed, tail_seed])
    tail_hi = (math.tau / abs(delta) if delta else 1.0) + 1e-3
    bounds = [(0.5 * s1_seed, 1.5 * s1_seed) if s1_seed > 0 else (1.5 * s1_seed, 0.5 * s1_seed),
              (0.4 * s2_seed, 1.6 * s2_seed) if s2_seed > 0 else (1.6 * s2_seed, 0.4 * s2_seed),
              (1e-4, tail_hi)]
    free = 2 if target == "inversion" else 3  # parameters the calibration moves
    result = calibrate_pulse(("state", goal), lambda p: build([*p, *seed[free:]]),
                             bounds[:free], seed[:free], tol=tol)
    params = np.append(result.params, seed[free:])
    schedule = build(params)
    trajectory = evolve_state(schedule, np.array([1, 0, 0, 0], dtype=complex),
                              schedule.total_duration / 200.0)
    return DemoResult(target=target, fidelity=result.fidelity, params=params,
                      converged=result.converged, iterations=result.iterations,
                      schedule=schedule, waveform=wave,
                      trajectory=trajectory)

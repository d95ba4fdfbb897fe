"""Boundary potentials: rough angle data on the two axes and their loop coefficients.

A potential is a pair of continuous real functions alpha(x), beta(y) on a fixed
interval, stored as uniform samples (default step 1/256) with an interpolation
rule. Presets additionally carry analytic closures so that lattice evaluation
has no resampling error. The two operations eta_plus / eta_minus produce the
2x2 matrix coefficients that drive the characteristic integrations: eta_plus is
the coefficient of lambda^{+1}, eta_minus of lambda^{-1}.
"""

import json

import numpy as np

DEFAULT_STEP = 1.0 / 256.0
DEFAULT_INTERVAL = (-4.0, 4.0)

INTERPOLATIONS = ("piecewise-linear", "piecewise-constant")


class DomainError(ValueError):
    """Evaluation point falls outside the potential's interval."""


def _uniform_lattice(interval, step):
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    n = (hi - lo) / step
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"interval {interval} is not a whole number of steps {step}")
    n = int(round(n))
    # origin must be a lattice node: the normalization point of every frame
    k0 = -lo / step
    if not (lo <= 0.0 <= hi) or abs(k0 - round(k0)) > 1e-9:
        raise ValueError("interval must contain 0 as a lattice node")
    return lo + step * np.arange(n + 1)


class PotentialSpec:
    """Sampled boundary-angle pair with optional analytic closures.

    Attributes
    ----------
    xs : uniform sample lattice over the interval (origin is a node)
    alpha_samples, beta_samples : real samples on xs
    interpolation : rule used between nodes for sampled data
    """

    def __init__(self, xs, alpha_samples, beta_samples,
                 interpolation="piecewise-linear",
                 alpha_fn=None, beta_fn=None, name=None):
        if interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {interpolation!r}")
        self.xs = np.asarray(xs, float)
        self.step = float(self.xs[1] - self.xs[0])
        self.interval = (float(self.xs[0]), float(self.xs[-1]))
        self.alpha_samples = np.asarray(alpha_samples, float)
        self.beta_samples = np.asarray(beta_samples, float)
        if self.alpha_samples.shape != self.xs.shape \
                or self.beta_samples.shape != self.xs.shape:
            raise ValueError("sample arrays must match the lattice")
        if not np.isfinite([self.alpha_samples, self.beta_samples]).all():
            raise ValueError("potential samples must be finite")
        self.interpolation = interpolation
        self._alpha_fn = alpha_fn
        self._beta_fn = beta_fn
        self.name = name

    # -- construction -------------------------------------------------------

    @classmethod
    def from_functions(cls, alpha_fn, beta_fn, interval=DEFAULT_INTERVAL,
                       step=DEFAULT_STEP, name=None):
        xs = _uniform_lattice(interval, step)
        return cls(xs, alpha_fn(xs), beta_fn(xs), alpha_fn=alpha_fn,
                   beta_fn=beta_fn, name=name)

    @classmethod
    def from_samples(cls, alpha_pairs, beta_pairs, interval=DEFAULT_INTERVAL,
                     step=DEFAULT_STEP, interpolation="piecewise-linear"):
        """Build from explicit (coordinate, value) pairs, resampled to the lattice."""
        xs = _uniform_lattice(interval, step)

        def resample(pairs):
            pairs = np.asarray(pairs, float)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError("samples must be a list of [coordinate, value] pairs")
            order = np.argsort(pairs[:, 0])
            px, pv = pairs[order, 0], pairs[order, 1]
            if interpolation == "piecewise-constant":
                idx = np.clip(np.searchsorted(px, xs, side="right") - 1, 0, len(px) - 1)
                return pv[idx]
            return np.interp(xs, px, pv)

        return cls(xs, resample(alpha_pairs), resample(beta_pairs),
                   interpolation=interpolation)

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, t):
        t = np.asarray(t, float)
        lo, hi = self.interval
        eps = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t.size and (t.min() < lo - eps or t.max() > hi + eps):
            raise DomainError(
                f"coordinate outside interval [{lo}, {hi}]")
        return t

    def _eval(self, samples, fn, t):
        t = self._check_domain(t)
        if fn is not None:
            return fn(t)
        if self.interpolation == "piecewise-constant":
            idx = np.clip(np.searchsorted(self.xs, t, side="right") - 1,
                          0, len(self.xs) - 1)
            return samples[idx]
        return np.interp(t, self.xs, samples)

    def alpha(self, x):
        return self._eval(self.alpha_samples, self._alpha_fn, x)

    def beta(self, y):
        return self._eval(self.beta_samples, self._beta_fn, y)

    def __repr__(self):
        tag = self.name or "samples"
        return (f"PotentialSpec({tag}, interval={self.interval}, "
                f"step={self.step:g}, {self.interpolation})")


# ---------------------------------------------------------------------------
# loop coefficients

def eta_plus(spec, x):
    """lambda^{+1} coefficient on the x characteristic: (i/2)[[0, e^-ia],[e^ia, 0]]."""
    a = np.asarray(spec.alpha(x))
    out = np.zeros(a.shape + (2, 2), complex)
    out[..., 0, 1] = 0.5j * np.exp(-1j * a)
    out[..., 1, 0] = 0.5j * np.exp(1j * a)
    return out


def eta_minus(spec, y):
    """lambda^{-1} coefficient on the y characteristic: -(i/2)[[0, e^ib],[e^-ib, 0]]."""
    b = np.asarray(spec.beta(y))
    out = np.zeros(b.shape + (2, 2), complex)
    out[..., 0, 1] = -0.5j * np.exp(1j * b)
    out[..., 1, 0] = -0.5j * np.exp(-1j * b)
    return out


# ---------------------------------------------------------------------------
# presets

def preset_pseudosphere(interval=DEFAULT_INTERVAL, step=DEFAULT_STEP):
    """Boundary angles whose surface is the standard pseudo-sphere."""
    return PotentialSpec.from_functions(
        lambda x: 4.0 * np.arctan(np.exp(x)) - np.pi,
        lambda y: 4.0 * np.arctan(np.exp(y)),
        interval=interval, step=step, name="pseudosphere")


def preset_vacuum(interval=DEFAULT_INTERVAL, step=DEFAULT_STEP):
    """Zero angles; the degenerate straight-line front."""
    return PotentialSpec.from_functions(
        lambda x: np.zeros_like(np.asarray(x, float)),
        lambda y: np.zeros_like(np.asarray(y, float)),
        interval=interval, step=step, name="vacuum")


def preset_c0_kink(amplitude, interval=DEFAULT_INTERVAL, step=DEFAULT_STEP):
    """Angles a|x|, a|y|: continuous but not differentiable at the axes."""
    a = float(amplitude)
    return PotentialSpec.from_functions(
        lambda x: a * np.abs(x), lambda y: a * np.abs(y),
        interval=interval, step=step, name=f"c0_kink[{a:g}]")


_PRESETS = {                    # (amplitude, interval, step) -> spec
    "pseudosphere": lambda a, interval, step: preset_pseudosphere(interval, step),
    "vacuum": lambda a, interval, step: preset_vacuum(interval, step),
    "c0_kink": preset_c0_kink,
}


def preset_by_name(name, amplitude=None, interval=DEFAULT_INTERVAL,
                   step=DEFAULT_STEP):
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    return _PRESETS[name](1.0 if amplitude is None else amplitude, interval,
                          step)


# ---------------------------------------------------------------------------
# JSON schema:
# {"alpha": {"preset": name, ...} | {"samples": [[x, value], ...]},
#  "beta": likewise, "step": number, "interval": [lo, hi],
#  "interpolation": optional}

def from_json(source):
    """Build a PotentialSpec from a JSON object, string or file path."""
    if isinstance(source, (str, bytes)):
        s = source.strip() if isinstance(source, str) else source
        if isinstance(s, str) and s.startswith("{"):
            obj = json.loads(s)
        else:
            with open(source) as fh:
                obj = json.load(fh)
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValueError(f"potential must be a JSON object, got {obj!r}")
    step = float(obj.get("step", DEFAULT_STEP))
    interval = tuple(obj.get("interval", DEFAULT_INTERVAL))
    interp = obj.get("interpolation", "piecewise-linear")
    for key in ("alpha", "beta"):
        if key not in obj:
            raise ValueError(f"potential config missing {key!r}")
        side = obj[key]
        if not isinstance(side, dict) or not {"preset", "samples"} & set(side):
            raise ValueError(f"potential {key!r} must be an object with "
                             f"'preset' or 'samples', got {side!r}")
    a, b = obj["alpha"], obj["beta"]
    if "preset" in a or "preset" in b:
        if a.get("preset") != b.get("preset"):
            # mixed preset/sample sides: realize each side separately
            def side_fn(side, which):
                if "preset" in side:
                    sp = preset_by_name(side["preset"], side.get("amplitude"),
                                        interval, step)
                    return sp._alpha_fn if which == "alpha" else sp._beta_fn
                pairs = np.asarray(side["samples"], float)
                return lambda t: np.interp(t, pairs[:, 0], pairs[:, 1])
            return PotentialSpec.from_functions(
                side_fn(a, "alpha"), side_fn(b, "beta"), interval, step)
        return preset_by_name(a["preset"], a.get("amplitude"), interval, step)
    return PotentialSpec.from_samples(a["samples"], b["samples"],
                                      interval=interval, step=step,
                                      interpolation=interp)


def to_json(spec):
    """Serializable description; presets stay symbolic, samples are listed."""
    obj = {"step": spec.step, "interval": list(spec.interval),
           "interpolation": spec.interpolation}
    if spec.name and spec.name.startswith("c0_kink"):
        amp = float(spec.name.split("[")[1].rstrip("]"))
        obj["alpha"] = obj["beta"] = {"preset": "c0_kink", "amplitude": amp}
    elif spec.name in ("pseudosphere", "vacuum"):
        obj["alpha"] = obj["beta"] = {"preset": spec.name}
    else:
        obj["alpha"] = {"samples": np.stack([spec.xs, spec.alpha_samples], 1).tolist()}
        obj["beta"] = {"samples": np.stack([spec.xs, spec.beta_samples], 1).tolist()}
    return obj

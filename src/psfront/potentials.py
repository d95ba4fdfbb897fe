"""Boundary potentials: rough angle data on the two axes and their loop coefficients.

A potential is a pair of continuous real functions alpha(x), beta(y) on a fixed
interval, stored as uniform samples (default step 1/256) and read linearly
between them, which keeps corner data in the paper's C0 class. Presets carry
analytic closures so that lattice evaluation has no resampling error. The two
operations eta_plus / eta_minus produce the 2x2 matrix coefficients that drive
the characteristic integrations: eta_plus is the coefficient of lambda^{+1},
eta_minus of lambda^{-1}.
"""

import json
import math

import numpy as np

DEFAULT_STEP = 1.0 / 256.0
DEFAULT_INTERVAL = (-4.0, 4.0)
# 16x the 65 537 nodes of [-4, 4] at step 1/8192, the finest lattice tested
MAX_LATTICE_NODES = 2 ** 20


class DomainError(ValueError):
    """Evaluation point falls outside the potential's interval."""


def _uniform_lattice(interval, step):
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < step < math.inf:
        raise ValueError(f"potential step must be positive and finite, "
                         f"got {step!r}")
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    n = (hi - lo) / step
    if not math.isfinite(n):
        raise ValueError(f"potential interval {[lo, hi]} spans a non-finite "
                         f"number of steps of {step!r}")
    if n + 1 > MAX_LATTICE_NODES:
        raise ValueError(f"potential interval {[lo, hi]} at step {step!r} "
                         f"needs {n + 1:.6g} lattice nodes, more than "
                         f"{MAX_LATTICE_NODES}")
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"interval {interval} is not a whole number of steps {step}")
    n = int(round(n))
    # origin must be a lattice node: the normalization point of every frame
    k0 = -lo / step
    if not (lo <= 0.0 <= hi) or abs(k0 - round(k0)) > 1e-9:
        raise ValueError("interval must contain 0 as a lattice node")
    return lo + step * np.arange(n + 1)


def _resample(pairs, xs, where):
    """Values on xs of (coordinate, value) pairs in any order, read linearly."""
    try:
        pairs = np.asarray(pairs, float)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{where} must be a list of [coordinate, value] "
                         "pairs")
    if not np.isfinite(pairs).all():
        raise ValueError(f"{where} must be finite")
    px, pv = pairs[np.argsort(pairs[:, 0])].T
    vals = np.interp(xs, px, pv)
    # np.interp's slope overflows between nearly equal coordinates, where
    # the fraction w of the segment still reads the value
    bad = ~np.isfinite(vals)
    j = np.searchsorted(px, xs[bad], side="right")
    w = (xs[bad] - px[j - 1]) / (px[j] - px[j - 1])
    vals[bad] = (1.0 - w) * pv[j - 1] + w * pv[j]
    return vals


class PotentialSpec:
    """Sampled boundary-angle pair with optional analytic closures.

    Attributes
    ----------
    xs : uniform sample lattice over the interval (origin is a node)
    alpha_samples, beta_samples : real samples on xs, read piecewise
        linearly between nodes
    """

    def __init__(self, xs, alpha_samples, beta_samples, alpha_fn=None,
                 beta_fn=None, name=None):
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
                     step=DEFAULT_STEP):
        """Build from explicit (coordinate, value) pairs, resampled to the lattice."""
        return from_json({"alpha": {"samples": alpha_pairs}, "step": step,
                          "beta": {"samples": beta_pairs}, "interval": interval})

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, t):
        t = np.asarray(t, float)
        lo, hi = self.interval
        eps = 1e-9 * max(1.0, abs(lo), abs(hi))
        # written so that a NaN coordinate fails it
        if t.size and not (t.min() >= lo - eps and t.max() <= hi + eps):
            raise DomainError(
                f"coordinate outside interval [{lo}, {hi}]")
        return t

    def _eval(self, samples, fn, t):
        t = self._check_domain(t)
        if fn is not None:
            return fn(t)
        return np.interp(t, self.xs, samples)

    def alpha(self, x):
        return self._eval(self.alpha_samples, self._alpha_fn, x)

    def beta(self, y):
        return self._eval(self.beta_samples, self._beta_fn, y)

    def __repr__(self):
        tag = self.name or "samples"
        return (f"PotentialSpec({tag}, interval={self.interval}, "
                f"step={self.step:g})")


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

# name -> (the keys a side of it reads, amplitude -> (alpha, beta) closures):
# the pseudo-sphere, zero angles (a straight line) and the C0 kinks a|x|, a|y|
_PRESETS = {
    "pseudosphere": (("preset",), lambda a: (
        lambda x: 4.0 * np.arctan(np.exp(x)) - np.pi,
        lambda y: 4.0 * np.arctan(np.exp(y)))),
    "vacuum": (("preset",), lambda a: (
        lambda t: np.zeros_like(np.asarray(t, float)),) * 2),
    "c0_kink": (("preset", "amplitude"),
                lambda a: (lambda t: a * np.abs(t),) * 2),
}


def preset_by_name(name, amplitude=None, interval=DEFAULT_INTERVAL,
                   step=DEFAULT_STEP):
    """One preset on both sides; amplitude None keeps the preset's default."""
    side = {"preset": name}
    if amplitude is not None:
        side["amplitude"] = amplitude
    return from_json({"alpha": side, "beta": side, "interval": interval,
                      "step": step})


# ---------------------------------------------------------------------------
# JSON schema, defaults shown; a key outside it, or a value of the wrong type,
# raises ValueError naming it:
# {"alpha": side, "beta": side, "step": 1/256, "interval": [-4, 4]}, where a
# side is {"preset": "pseudosphere" | "vacuum"}, {"preset": "c0_kink",
# "amplitude": 1} or {"samples": [[coordinate, value], ...]}, pairs in any order

def _number(where, value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where} must be a number, got {value!r}") from None


def _reject_unread(obj, keys, where):
    unread = sorted(set(obj) - set(keys))
    if unread:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unread))}"
                         f"; it reads {', '.join(map(repr, keys))}")


def _side(obj, key, which, xs):
    """A side's closure (None for samples), lattice values and preset name."""
    side = obj.get(key)
    if not isinstance(side, dict) or not {"preset", "samples"} & set(side):
        raise ValueError(f"potential {key!r} must be an object with "
                         f"'preset' or 'samples', got {side!r}")
    if "preset" not in side:
        _reject_unread(side, ("samples",), f"potential {key!r}")
        return None, _resample(side["samples"], xs,
                               f"potential {key!r} samples"), None
    name = side["preset"]
    if not isinstance(name, str):
        raise ValueError(f"potential {key!r} preset must be a string, "
                         f"got {name!r}")
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    keys, closures = _PRESETS[name]
    _reject_unread(side, keys, f"potential {key!r} (preset {name!r})")
    a = _number(f"potential {key!r} amplitude", side.get("amplitude", 1.0))
    fn = closures(a)[which]
    return fn, fn(xs), f"{name}[{a!r}]" if "amplitude" in keys else name


def from_json(source):
    """Build a PotentialSpec from a JSON object, string or file path; one
    preset on both sides keeps the preset's name."""
    obj = source
    if isinstance(source, str) and source.strip().startswith("{"):
        obj = json.loads(source)
    elif isinstance(source, (str, bytes)):
        with open(source) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"potential must be a JSON object, got {obj!r}")
    _reject_unread(obj, ("alpha", "beta", "step", "interval"), "potential")
    interval = obj.get("interval", DEFAULT_INTERVAL)
    if not isinstance(interval, (list, tuple, np.ndarray)) \
            or len(interval) != 2:
        raise ValueError(f"potential interval must be a list of two numbers, "
                         f"got {interval!r}")
    xs = _uniform_lattice(
        tuple(_number("potential interval entry", v) for v in interval),
        _number("potential step", obj.get("step", DEFAULT_STEP)))
    (fa, a, na), (fb, b, nb) = (_side(obj, key, which, xs)
                                for which, key in enumerate(("alpha", "beta")))
    return PotentialSpec(xs, a, b, alpha_fn=fa, beta_fn=fb,
                         name=na if na == nb else None)


def to_json(spec):
    """Serializable description; presets stay symbolic, samples are listed."""
    obj = {"step": spec.step, "interval": list(spec.interval)}
    preset, _, amplitude = (spec.name or "").partition("[")
    if preset in _PRESETS:
        side = {"preset": preset}
        if amplitude:
            side["amplitude"] = float(amplitude.rstrip("]"))
        obj["alpha"] = obj["beta"] = side
    else:
        obj["alpha"] = {"samples": np.stack([spec.xs, spec.alpha_samples], 1).tolist()}
        obj["beta"] = {"samples": np.stack([spec.xs, spec.beta_samples], 1).tolist()}
    return obj

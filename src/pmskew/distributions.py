"""Seeded variate generation for the null and alternative distributions.

Streams are Philox counter-based: the bit generator key is the pair
(seed, stream_id), so any replication's stream can be reconstructed
independently of thread scheduling or draw order. stream_id is the
replication index in the Monte Carlo harness; ids at and above 2**48 are
reserved for internal calibration runs (see montecarlo).

A stream is its key and nothing else: every stream starts at counter 0,
and a Philox key names an independent stream by design (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11). So a generator
built once can be moved to the start of any other stream of the same seed
by setting its key to (seed, stream_id) and its counter to 0
(stream_rekeyer). It then draws exactly the variates of a freshly built
SeededStream(seed, stream_id).generator(), without the cost of building
one; the Monte Carlo harness uses this to draw a whole chunk of
replications with one generator.

row_filler looks the family up once and writes rows: normal and gamma in
place, beta, Weibull and lognormal through one copy, as numpy has no out=
for them. draw_values is the same filler on one new row.

Sampling methods are numpy Generator implementations (ziggurat normals,
Marsaglia-Tsang gamma, inversion Weibull, exp-of-normal lognormal,
gamma-ratio beta); population moments below are exact closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, check_int, check_member, check_real
from .moments import Sample

__all__ = [
    "Family",
    "AlternativeSpec",
    "SeededStream",
    "sample",
    "draw_values",
    "population_moments",
    "POWER_STUDY_ALTERNATIVES",
]


class Family(str, enum.Enum):
    NORMAL = "normal"
    BETA = "beta"
    GAMMA = "gamma"
    WEIBULL = "weibull"
    LOGNORMAL = "lognormal"

    def __str__(self) -> str:
        return self.value


_PARAM_COUNT = {
    Family.NORMAL: 0,
    Family.BETA: 2,
    Family.GAMMA: 1,
    Family.WEIBULL: 1,
    Family.LOGNORMAL: 2,
}


@dataclass(frozen=True)
class AlternativeSpec:
    """A sampling distribution: family plus family-specific parameters.

    BETA takes (p, q), GAMMA and WEIBULL a shape, LOGNORMAL (mu, sigma).
    GAMMA and WEIBULL use unit scale; every implemented test is scale
    invariant, so the choice is unobservable.
    """

    family: Family
    params: tuple[float, ...] = ()

    def __post_init__(self):
        family = check_member(Family, self.family, "distribution family")
        try:
            if isinstance(self.params, (str, bytes)):
                raise TypeError  # would be read one character at a time
            params = tuple(check_real("parameter", p) for p in self.params)
        except (TypeError, InvalidParamsError):
            raise InvalidParamsError(
                f"{family} parameters must be a collection of numbers, "
                f"got {self.params!r}"
            ) from None
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        want = _PARAM_COUNT[family]
        if len(params) != want:
            raise InvalidParamsError(
                f"{family} takes {want} parameter(s), got {len(params)}"
            )
        if any(not math.isfinite(p) for p in params):
            raise InvalidParamsError(f"{family} parameters must be finite")
        if family is Family.LOGNORMAL:
            if params[1] <= 0:
                raise InvalidParamsError("lognormal sigma must be positive")
        elif any(p <= 0 for p in params):
            raise InvalidParamsError(f"{family} parameters must be positive")

    @classmethod
    def parse(cls, text: str) -> "AlternativeSpec":
        """Parse a spec string like 'beta:2,1', 'gamma:3', or 'normal'."""
        name, sep, rest = text.strip().partition(":")
        family = name.strip().lower()
        if not sep:
            return cls(family)
        try:
            params = tuple(float(p) for p in rest.split(","))
        except ValueError:
            raise InvalidParamsError(f"malformed parameters in {text!r}")
        return cls(family, params)

    @property
    def label(self) -> str:
        """Canonical spec string, e.g. 'beta:2,1', that parses back to this
        spec."""
        if not self.params:
            return self.family.value
        body = ",".join(_param_text(p) for p in self.params)
        return f"{self.family.value}:{body}"


def _param_text(p: float) -> str:
    """p in format 'g' if that reads back as p and is no longer, else repr(p)."""
    short, exact = format(p, "g"), repr(p)
    return short if float(short) == p and len(short) <= len(exact) else exact


# the six alternative configurations studied in the power experiments
POWER_STUDY_ALTERNATIVES = (
    AlternativeSpec(Family.BETA, (2.0, 1.0)),
    AlternativeSpec(Family.BETA, (3.0, 2.0)),
    AlternativeSpec(Family.WEIBULL, (2.0,)),
    AlternativeSpec(Family.GAMMA, (3.0,)),
    AlternativeSpec(Family.GAMMA, (2.0,)),
    AlternativeSpec(Family.LOGNORMAL, (0.0, 0.5)),
)


@dataclass(frozen=True)
class SeededStream:
    """An independent random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_rekeyer(rng: np.random.Generator):
    """Return set_stream(stream_id), which moves rng, a generator from
    SeededStream(seed, ...).generator(), to the start of stream
    (seed, stream_id).

    set_stream gives the Philox bit generator key (seed, stream_id),
    counter 0 and an empty buffer, the state Philox(key=...) starts in; a
    Generator keeps no state of its own, so rng then draws exactly the
    variates of SeededStream(seed, stream_id).generator().
    """
    bit_generator = rng.bit_generator
    key = [int(bit_generator.state["state"]["key"][0]), 0]
    # plain ints: the state setter reads them faster than uint64 arrays
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def set_stream(stream_id: int) -> None:
        key[1] = stream_id
        bit_generator.state = state

    return set_stream


def row_filler(spec: AlternativeSpec, rng: np.random.Generator):
    """Return fill(out), which fills the contiguous float64 array out with
    variates of spec from rng, in C order. gamma(shape, 1.0) is 1.0 *
    standard_gamma(shape), the same bytes; lognormal and Weibull are not
    exp or power of other variates, as those ufuncs are not bit-equal to
    the libm calls inside numpy's samplers."""
    family, params = spec.family, spec.params
    if family is Family.NORMAL:
        return lambda out: rng.standard_normal(out=out)
    if family is Family.GAMMA:
        return lambda out: rng.standard_gamma(params[0], out=out)
    draw = getattr(rng, family.value)  # rng.beta, rng.weibull, rng.lognormal

    def fill(out):
        out[...] = draw(*params, out.shape)

    return fill


def draw_values(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates from spec using the given generator."""
    out = np.empty(check_int("n", n, lo=1))
    row_filler(spec, rng)(out)
    return out


def sample(spec: AlternativeSpec, n: int, stream: SeededStream) -> Sample:
    """Draw a Sample of size n from spec on the given stream.

    Bit-reproducible for fixed (spec, n, seed, stream_id).
    """
    return Sample(draw_values(spec, n, stream.generator()))


def population_moments(spec: AlternativeSpec) -> tuple[float, float]:
    """Exact population skewness sqrt(beta1) and kurtosis beta2;
    InvalidParamsError if float64 cannot hold them or their terms."""
    family = spec.family
    try:
        if family is Family.NORMAL:
            moments = 0.0, 3.0
        elif family is Family.BETA:
            p, q = spec.params
            s = p + q
            sqrt_beta1 = (
                2.0 * (q - p) * math.sqrt(s + 1.0) / ((s + 2.0) * math.sqrt(p * q))
            )
            gamma2 = (
                6.0
                * ((p - q) ** 2 * (s + 1.0) - p * q * (s + 2.0))
                / (p * q * (s + 2.0) * (s + 3.0))
            )
            moments = sqrt_beta1, 3.0 + gamma2
        elif family is Family.GAMMA:
            a = spec.params[0]
            moments = 2.0 / math.sqrt(a), 3.0 + 6.0 / a
        elif family is Family.WEIBULL:
            k = spec.params[0]
            g1, g2, g3, g4 = (math.gamma(1.0 + i / k) for i in (1, 2, 3, 4))
            var = g2 - g1 * g1
            mu3 = g3 - 3.0 * g1 * g2 + 2.0 * g1**3
            mu4 = g4 - 4.0 * g1 * g3 + 6.0 * g1 * g1 * g2 - 3.0 * g1**4
            moments = mu3 / var**1.5, mu4 / (var * var)
        else:  # LOGNORMAL; every family is handled
            sigma = spec.params[1]
            w = math.exp(sigma * sigma)
            sqrt_beta1 = (w + 2.0) * math.sqrt(w - 1.0)
            moments = sqrt_beta1, w**4 + 2.0 * w**3 + 3.0 * w * w - 3.0
        if all(map(math.isfinite, moments)):
            return moments
    except (OverflowError, ZeroDivisionError):
        pass
    raise InvalidParamsError(f"population moments of {spec.label} are beyond float64")

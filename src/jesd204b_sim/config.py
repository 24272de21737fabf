"""Static link parameters and the 14-octet lane-configuration image.

A single :class:`LinkConfig` is shared by the transmitter model, the
receiver and the simulation harness.  Everything here is a plain value
type: a :class:`LinkConfig` checks itself when built and cannot change
afterwards, packing is deterministic, and all functions are safe to call
from any thread.

The 14 configuration octets carried during initial lane alignment follow
the standard wire layout.  Fields are stored exactly as they appear on
the wire, so the fields that the standard encodes as "value minus one"
(``l``, ``f``, ``k``, ``m``, ``n``, ``nprime``, ``s``) hold the encoded
value here.  :meth:`IlasConfig.from_link_config` applies the minus-one
encoding when deriving an image from a :class:`LinkConfig`.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Any, Collection, Sequence

OCTETS_PER_CYCLE = 4  # fixed 32-bit datapath: one frame-fraction of 4 octets per cycle

ILAS_CONFIG_LEN = 14
ILAS_MULTIFRAMES = 4

ERROR_WINDOW_CYCLES = 256  # sliding window for decode-error accounting

# Checksum rules for octet 13 of the configuration image.  Vendors differ:
# the common rule sums the first 13 octets, the alternate sums the encoded
# field values.  Both are mod 256.
OCTET_SUM = "octet_sum"
FIELD_SUM = "field_sum"
CHECKSUM_RULES = (OCTET_SUM, FIELD_SUM)

# Lane-configuration validation policies applied by the receiver.
POLICY_MINIMAL = "minimal"  # l/f/k/scr must match the link config
POLICY_STRICT = "strict"    # every field must match the expected image
ILAS_POLICIES = (POLICY_MINIMAL, POLICY_STRICT)


@dataclass(frozen=True)
class ConstraintViolation:
    """One failed configuration rule, by name, with the offending value."""

    name: str
    actual: Any
    allowed: str

    def __str__(self) -> str:
        return f"{self.name}: got {self.actual!r}, allowed {self.allowed}"


class ConfigError(ValueError):
    """Raised when a :class:`LinkConfig` is built with invalid values;
    ``violations`` lists every rule it breaks."""

    def __init__(self, violations: list[ConstraintViolation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class FieldOverflow(ValueError):
    """A configuration field value does not fit its wire width."""

    def __init__(self, field_name: str, value: int, width: int):
        self.field_name = field_name
        self.value = value
        self.width = width
        super().__init__(f"field {field_name}={value} exceeds {width} bits")


class ParseError(ValueError):
    """Malformed or unknown content in a JSON config file."""


def is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_keys(section: str, data: dict[str, Any], allowed: Collection[str]) -> None:
    """Raise :class:`ParseError` naming every key of ``data`` not in ``allowed``."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ParseError(f"unknown {section} key(s): {', '.join(unknown)}")


def check_int(name: str, value: Any, lo: int | None = None,
              hi: int | None = None) -> None:
    """Raise :class:`ParseError` naming ``name`` unless ``value`` is an
    integer in ``lo..hi`` (a bound of None leaves that side open)."""
    if is_int(value) and (lo is None or lo <= value) and (hi is None or value <= hi):
        return
    if hi is not None:
        allowed = f"an integer in {lo}..{hi}"
    elif lo is not None:
        allowed = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
    else:
        allowed = "an integer"
    raise ParseError(f"{name}: got {value!r}, allowed {allowed}")


class _Derived(int):
    """A default resolved from F*K, derived again when passed back by replace."""


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of one link, checked once, when built.

    ``L``/``F``/``K`` are lanes per link, octets per frame and frames per
    multiframe.  ``F`` is restricted to multiples of 4 so the 32-bit
    datapath always processes whole frames in an integral number of
    cycles.  Defaults left at ``None`` are resolved from ``F*K``, and
    again by :func:`dataclasses.replace`; given values stay.  An
    invalid config (built directly, by :meth:`from_dict` or by
    :func:`dataclasses.replace`) raises :class:`ConfigError`; a valid one
    is immutable.
    """

    L: int
    F: int
    K: int
    links: int = 1
    scrambling: bool = True
    buffer_depth: int | None = None   # per-lane elastic buffer capacity, octets
    cgs_threshold: int = 4            # consecutive clean commas to declare CGS
    error_threshold: int = 4          # decode errors per window before resync
    stability_cycles: int = 16        # extra clean cycles gating the CGS exit
    release_offset: int | None = None  # LMFC phase (octets) of the buffer release
    ilas_policy: str = POLICY_MINIMAL
    fchk_rule: str = OCTET_SUM

    def __post_init__(self) -> None:
        if isinstance(self.scrambling, numbers.Integral) and self.scrambling in (0, 1):
            object.__setattr__(self, "scrambling", bool(self.scrambling))
        if is_int(self.F) and is_int(self.K):  # else nothing derives from them
            # Latency stays skew-invariant as long as every lane's data
            # arrival phase (channel idle + skew + alignment slack) falls on
            # one side of the release point; a late default leaves the most
            # headroom below it.
            for name, value in (("buffer_depth", 2 * self.F * self.K),
                                ("release_offset", self.F * self.K - 8)):
                if getattr(self, name) is None or type(getattr(self, name)) is _Derived:
                    object.__setattr__(self, name, _Derived(value))
        violations = _violations(self)
        if violations:
            raise ConfigError(violations)

    @property
    def fk(self) -> int:
        """Octets per multiframe."""
        return self.F * self.K

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        for name in ("scrambling", "buffer_depth", "release_offset"):
            d[name] = int(d[name])
        return d

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LinkConfig":
        """Build from a JSON-style dict.  Unknown keys are rejected."""
        check_keys("config", data, [f.name for f in dataclasses.fields(cls)])
        missing = [k for k in ("L", "F", "K") if k not in data]
        if missing:
            raise ParseError(f"missing required config key(s): {', '.join(missing)}")
        return cls(**data)


_RANGES = {
    "links": (1, 4),
    "L": (1, 32),
    "F": (4, 32),
    "K": (1, 32),
}
# Integer fields whose bounds depend on F*K or are one-sided.
_INT_FIELDS = ("buffer_depth", "cgs_threshold", "error_threshold",
               "stability_cycles", "release_offset")


def _violations(cfg: LinkConfig) -> list[ConstraintViolation]:
    """Every rule ``cfg`` breaks, in a fixed order (empty when valid)."""
    out: list[ConstraintViolation] = []

    def bad(name: str, actual: Any, allowed: str) -> None:
        out.append(ConstraintViolation(name, actual, allowed))

    for attr, (lo, hi) in _RANGES.items():
        v = getattr(cfg, attr)
        if not (is_int(v) and lo <= v <= hi):
            bad(f"{attr}-range", v, f"{lo}..{hi}")
    for attr in _INT_FIELDS:
        v = getattr(cfg, attr)
        if not is_int(v) and v is not None:  # None: F or K is mistyped
            bad(f"{attr.replace('_', '-')}-type", v, "an integer")
    if not isinstance(cfg.scrambling, bool):
        bad("scrambling-type", cfg.scrambling, "a bool, 0 or 1")
    if not all(is_int(getattr(cfg, attr)) for attr in (*_RANGES, *_INT_FIELDS)):
        return out  # the rules below compare integers

    if cfg.F % 4 != 0:
        bad("F-multiple-of-4", cfg.F, "F mod 4 == 0")

    fk = cfg.F * cfg.K
    if not 17 <= fk <= 1024:
        bad("FK-range", fk, "17..1024")

    if cfg.buffer_depth < fk // 2:
        bad("buffer-depth-min", cfg.buffer_depth, f">= F*K/2 = {fk // 2}")
    if not 0 <= cfg.release_offset < fk:
        bad("release-offset-range", cfg.release_offset, f"0..{fk - 1}")
    if cfg.cgs_threshold < 1:
        bad("cgs-threshold-min", cfg.cgs_threshold, ">= 1")
    if cfg.error_threshold < 1:
        bad("error-threshold-min", cfg.error_threshold, ">= 1")
    if cfg.stability_cycles < 0:
        bad("stability-cycles-min", cfg.stability_cycles, ">= 0")
    if cfg.ilas_policy not in ILAS_POLICIES:
        bad("ilas-policy", cfg.ilas_policy, "|".join(ILAS_POLICIES))
    if cfg.fchk_rule not in CHECKSUM_RULES:
        bad("fchk-rule", cfg.fchk_rule, "|".join(CHECKSUM_RULES))
    return out


# Wire layout of the configuration image: name -> (octet, shift, width).
# Values are stored exactly as transmitted (encoded values for the
# minus-one fields).
ILAS_FIELD_LAYOUT: dict[str, tuple[int, int, int]] = {
    "did":       (0, 0, 8),
    "bid":       (1, 0, 4),
    "lid":       (2, 0, 5),
    "scr":       (3, 7, 1),
    "l":         (3, 0, 5),
    "f":         (4, 0, 8),
    "k":         (5, 0, 5),
    "m":         (6, 0, 8),
    "cs":        (7, 6, 2),
    "n":         (7, 0, 5),
    "subclassv": (8, 5, 3),
    "nprime":    (8, 0, 5),
    "jesdv":     (9, 5, 3),
    "s":         (9, 0, 5),
    "hd":        (10, 7, 1),
    "cf":        (10, 0, 5),
    "res1":      (11, 0, 8),
    "res2":      (12, 0, 8),
}


def compute_fchk(octets: Sequence[int]) -> int:
    """Checksum octet under the octet-sum rule: sum of octets 0..12 mod 256.

    Accepts the first 13 octets or a full 14-octet image (octet 13, the
    checksum slot itself, is ignored).
    """
    if len(octets) not in (ILAS_CONFIG_LEN - 1, ILAS_CONFIG_LEN):
        raise ValueError(f"expected 13 or 14 octets, got {len(octets)}")
    return sum(int(o) & 0xFF for o in octets[: ILAS_CONFIG_LEN - 1]) % 256


@dataclass
class IlasConfig:
    """The 14 configuration octets, one field per wire field.

    ``l``, ``f``, ``k``, ``m``, ``n``, ``nprime`` and ``s`` carry the
    wire encoding (actual value minus one).  ``fchk`` is recomputed on
    pack and is therefore not stored.
    """

    did: int = 0
    bid: int = 0
    lid: int = 0
    scr: int = 1
    l: int = 0
    f: int = 3
    k: int = 31
    m: int = 0
    cs: int = 0
    n: int = 15
    subclassv: int = 1
    nprime: int = 15
    jesdv: int = 1
    s: int = 0
    hd: int = 0
    cf: int = 0
    res1: int = 0
    res2: int = 0

    @classmethod
    def from_link_config(cls, cfg: LinkConfig, channels: int = 1) -> "IlasConfig":
        """Derive an image from link parameters and the converter count
        (minus-one encoding applied); other fields keep their defaults,
        which describe 16-bit samples."""
        return cls(scr=int(cfg.scrambling), l=cfg.L - 1, f=cfg.F - 1,
                   k=cfg.K - 1, m=channels - 1)

    def checksum(self, octets: Sequence[int], rule: str) -> int:
        """Checksum octet of this image, whose wire octets are ``octets``,
        under ``rule``: the octet sum (:func:`compute_fchk`) or the sum of
        field values, mod 256."""
        if rule == OCTET_SUM:
            return compute_fchk(octets)
        if rule == FIELD_SUM:
            return sum(getattr(self, name) for name in ILAS_FIELD_LAYOUT) % 256
        raise ValueError(f"unknown checksum rule {rule!r}")

    def pack(self, rule: str = OCTET_SUM) -> bytes:
        """Deterministic 14-octet image with the checksum in octet 13."""
        octets = [0] * ILAS_CONFIG_LEN
        for name, (octet, shift, width) in ILAS_FIELD_LAYOUT.items():
            value = getattr(self, name)
            if not (is_int(value) and 0 <= value < (1 << width)):
                raise FieldOverflow(name, value, width)
            octets[octet] |= value << shift
        octets[13] = self.checksum(octets, rule)
        return bytes(octets)

    @classmethod
    def unpack(cls, octets: Sequence[int],
               rule: str = OCTET_SUM) -> tuple["IlasConfig", bool]:
        """Extract fields and verify the checksum.

        A bad checksum is reported through the flag, not an exception;
        the receiver state machine decides what to do with it.
        """
        if len(octets) != ILAS_CONFIG_LEN:
            raise ValueError(f"expected {ILAS_CONFIG_LEN} octets, got {len(octets)}")
        values = {}
        for name, (octet, shift, width) in ILAS_FIELD_LAYOUT.items():
            values[name] = (int(octets[octet]) >> shift) & ((1 << width) - 1)
        ic = cls(**values)
        return ic, (int(octets[13]) & 0xFF) == ic.checksum(octets, rule)

    def matches_link(self, cfg: LinkConfig) -> bool:
        """Minimal validation: wire l/f/k/scr agree with the link config."""
        return (self.l == cfg.L - 1 and self.f == cfg.F - 1
                and self.k == cfg.K - 1 and self.scr == int(cfg.scrambling))

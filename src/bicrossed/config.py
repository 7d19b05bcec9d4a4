"""Declarative configuration: parsing, validation, and the build pipeline.

A config names the finite group G (table or permutation generators), the
F backend (finite table or free-abelian rank), the actions (tables or
integer matrices), the two cocycles, a default ball radius and an
optional scalar level.  Scalars in cocycle tables are cyclotomic
literals: rationals, z^k@N, and sums/products of those.
"""

from __future__ import annotations

import json
from math import lcm

from .cocycles import SigmaCocycle, TauCocycle
from .cyclotomic import CycNum, rational, root_of_unity
from .errors import ConfigError
from .groups import FiniteF, FreeAbelianF, finite_group, permutation_group
from .hopf import BicrossedHopf
from .matched_pair import LinearAction, MatchedPairCtx, TableActions

# config_hash takes SHA-256 from the interpreter's own module (_sha2 from
# 3.12, _sha256 before), so a CLI process never maps OpenSSL's libcrypto
# for hashlib's _hashlib.  hashlib is the fallback for a build without
# them; every branch gives the same digest.
try:
    from _sha2 import sha256 as _new_sha256
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256
    except ImportError:
        from hashlib import sha256 as _new_sha256

DEFAULT_RADIUS = 4


# --------------------------------------------------------------------------
# Cyclotomic literal grammar:
#   expr   := term (('+' | '-') term)*
#   term   := atom ('*' atom)*
#   atom   := '-' atom | '(' expr ')' | zeta | rational
#   zeta   := 'z' ['^' int] '@' posint
#   rational := int ['/' posint]
# --------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ConfigError(f"expected {ch!r} at position {self.pos} in {self.text!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ConfigError(f"expected an integer at position {start} in {self.text!r}")
        return int(self.text[start:self.pos])


def parse_scalar(text) -> CycNum:
    """Parse a cyclotomic literal: a CycNum or an int passes through, a
    str is parsed, and anything else (a float, a Fraction) is a ConfigError."""
    if isinstance(text, CycNum):
        return text
    if isinstance(text, int):
        return rational(text)
    if not isinstance(text, str):
        raise ConfigError(f"cannot parse scalar from {type(text).__name__}")
    sc = _Scanner(text)
    value = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ConfigError(f"trailing input at position {sc.pos} in {text!r}")
    return value


def _parse_expr(sc: _Scanner) -> CycNum:
    value = _parse_term(sc)
    while True:
        if sc.take("+"):
            value = value + _parse_term(sc)
        elif sc.take("-"):
            value = value - _parse_term(sc)
        else:
            return value


def _parse_term(sc: _Scanner) -> CycNum:
    value = _parse_atom(sc)
    while sc.take("*"):
        value = value * _parse_atom(sc)
    return value


def _parse_atom(sc: _Scanner) -> CycNum:
    ch = sc.peek()
    if ch == "-":
        sc.take("-")
        return -_parse_atom(sc)
    if ch == "(":
        sc.take("(")
        value = _parse_expr(sc)
        sc.expect(")")
        return value
    if ch == "z":
        sc.take("z")
        k = 1
        if sc.take("^"):
            k = sc.integer()
        sc.expect("@")
        n = sc.integer()
        if n < 1:
            raise ConfigError("root-of-unity level must be positive")
        return root_of_unity(k, n)
    if ch.isdigit() or ch in "+-":
        num = sc.integer()
        if sc.take("/"):
            den = sc.integer()
            if den <= 0:
                raise ConfigError("denominators must be positive")
            return rational(num) / rational(den)
        return rational(num)
    raise ConfigError(f"unexpected character {ch!r} at position {sc.pos} in {sc.text!r}")


# --------------------------------------------------------------------------
# Config and build
# --------------------------------------------------------------------------


class Build:
    __slots__ = ("config", "config_hash", "ctx", "sigma", "tau", "hopf", "level", "radius", "name")

    def __init__(
        self,
        config: dict,
        config_hash: str,
        ctx: MatchedPairCtx,
        sigma: SigmaCocycle,
        tau: TauCocycle,
        hopf: BicrossedHopf,
        level: int,
        radius: int,
        name: str,
    ):
        self.config = config
        self.config_hash = config_hash
        self.ctx = ctx
        self.sigma = sigma
        self.tau = tau
        self.hopf = hopf
        self.level = level
        self.radius = radius
        self.name = name


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return _new_sha256(canon.encode()).hexdigest()[:16]


def _kind(spec, what: str) -> str:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'type'")
    return spec["type"]


def _field(spec: dict, key: str, what: str):
    if key not in spec:
        raise ConfigError(f"{what} spec is missing the {key!r} field")
    return spec[key]


def _as_int(value, what: str) -> int:
    # int() would read True as 1 and truncate 1.9 to 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, not {value!r}") from None


def _int_rows(rows, what: str) -> tuple:
    try:
        return tuple(tuple(_as_int(x, f"{what} entry") for x in row) for row in rows)
    except TypeError:
        raise ConfigError(f"{what} must be a list of lists of integers") from None


def _build_group(spec: dict):
    kind = _kind(spec, "group")
    if kind == "table":
        table = _int_rows(_field(spec, "table", "group"), "group table")
        return finite_group(table, name=spec.get("name", "G"))
    if kind == "permutations":
        gens = _int_rows(_field(spec, "generators", "group"), "permutation generators")
        return permutation_group(gens, name=spec.get("name", "G"))
    raise ConfigError(f"unknown group type {kind!r}")


def _build_f(spec: dict):
    kind = _kind(spec, "f_group")
    if kind == "finite":
        table = _int_rows(_field(spec, "table", "f_group"), "f_group table")
        return FiniteF(finite_group(table, name=spec.get("name", "F")))
    if kind == "free_abelian":
        rank = _as_int(_field(spec, "rank", "f_group"), "free abelian rank")
        if rank < 1:
            raise ConfigError("free abelian rank must be >= 1")
        return FreeAbelianF(rank)
    raise ConfigError(f"unknown f_group type {kind!r}")


def _build_action(spec: dict, G, F):
    kind = _kind(spec, "action")
    if kind == "tables":
        return TableActions(
            right=_int_rows(_field(spec, "right", "action"), "right action table"),
            left=_int_rows(_field(spec, "left", "action"), "left action table"),
        )
    if kind == "linear":
        try:
            mats = tuple(_int_rows(M, "action matrix") for M in _field(spec, "matrices", "action"))
        except TypeError:
            raise ConfigError("action matrices must be a list of integer matrices") from None
        return LinearAction(matrices=mats)
    raise ConfigError(f"unknown action type {kind!r}")


def _parse_table_scalars(values, levels: list):
    out = []
    try:
        for block in values:
            rows = []
            for row in block:
                vals = []
                for v in row:
                    c = parse_scalar(v)
                    levels.append(c.level)
                    vals.append(c)
                rows.append(vals)
            out.append(rows)
    except TypeError:
        raise ConfigError("cocycle values must be a list of lists of lists of scalars") from None
    return out


def _build_cocycle(cls, spec: dict | None, ctx, levels: list):
    """A SigmaCocycle or TauCocycle from its spec; no spec, or no type,
    means the trivial cocycle."""
    what = cls.name
    if spec is None:
        return cls.trivial()
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be an object")
    kind = spec.get("type", "trivial")
    if kind == "trivial":
        return cls.trivial()
    if kind == "table":
        return cls.finite_table(ctx, _parse_table_scalars(_field(spec, "values", what), levels))
    if kind == "quotient_lift":
        moduli = tuple(_as_int(m, f"{what} modulus") for m in _field(spec, "moduli", what))
        values = _parse_table_scalars(_field(spec, "values", what), levels)
        return cls.quotient_lift(ctx, moduli, values)
    raise ConfigError(f"unknown {what} type {kind!r}")


def build_config(cfg: dict) -> Build:
    """Validate a parsed config dict and construct the Hopf context.

    The working scalar level is lcm(exp(G), levels of all cocycle
    literals); declaring a smaller level in the config fails fast."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in cfg:
        if key not in {"name", "level", "group", "f_group", "action", "sigma", "tau", "radius"}:
            raise ConfigError(f"unknown config field {key!r}")
    for key in ("group", "f_group", "action"):
        if key not in cfg:
            raise ConfigError(f"config is missing the {key!r} field")
    G = _build_group(cfg["group"])
    F = _build_f(cfg["f_group"])
    ctx = MatchedPairCtx(G, F, _build_action(cfg["action"], G, F))
    levels: list[int] = []
    sigma = _build_cocycle(SigmaCocycle, cfg.get("sigma"), ctx, levels)
    tau = _build_cocycle(TauCocycle, cfg.get("tau"), ctx, levels)
    level = lcm(G.exponent(), *levels)
    declared = cfg.get("level")
    if declared is not None:
        declared = _as_int(declared, "level")
        if declared < 1:
            raise ConfigError("declared level must be >= 1")
        if declared % level != 0:
            raise ConfigError(
                f"declared level {declared} cannot hold the session scalars "
                f"(need a multiple of {level})"
            )
        level = declared
    radius = _as_int(cfg.get("radius", DEFAULT_RADIUS), "radius")
    if radius < 0:
        raise ConfigError("radius must be >= 0")
    hopf = BicrossedHopf(ctx, sigma, tau)
    return Build(
        config=cfg,
        config_hash=config_hash(cfg),
        ctx=ctx,
        sigma=sigma,
        tau=tau,
        hopf=hopf,
        level=level,
        radius=radius,
        name=str(cfg.get("name", "config")),
    )


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None

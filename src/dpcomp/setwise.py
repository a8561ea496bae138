"""Set-wise accounting across heterogeneous privacy guarantees.

An analyst registers a set of mechanisms up front -- pure DP, bounded
range, concentrated (CDP), or zero-concentrated (zCDP) -- and receives a
single global (eps_g, delta) guarantee that holds for any adaptive order
and any subset of executions.  The bound depends only on the registered
set, so it is computed eagerly and cached; consumption merely tracks
which registrations have been spent.

Bookkeeping is linear in the number of events.  Each registration is
keyed once (its fields rounded to 1e-12) and filed, in registration
order, under that key and its exact value.  A consume keys its query once
and spends, among the unspent registrations under the same key, the
earliest one exactly equal to the query; failing that, the earliest one
if they all hold a single value; otherwise it is ambiguous and rejected.
So register, consume and each replayed event of from_json cost O(1) key
computations and dictionary operations.  One table gives each class its
JSON tag and fields.  The reader reads it, and the writer renders one
template per class derived from it at import, in the layout of
json.dumps(indent=2, sort_keys=True) without running its pure-Python
encoder.  register takes its running-sum terms straight from each class's
fields, by the float expressions of the public conversions, without
building their intermediate guarantees.

Two accounting routes are provided and kept separate: the subgaussian
(CDP) route, which pure DP and BR convert into, and the zCDP route with
per-mechanism delta slack.  Mixing zCDP registrations into the CDP route
is an error rather than a silent fallback.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Union

from .numerics import check_delta, check_nonnegative, check_positive, log_recip

__all__ = [
    "PureDP",
    "BoundedRange",
    "Cdp",
    "Zcdp",
    "PrivacyClass",
    "AccountantStateError",
    "ConsumeMismatchError",
    "dp_mean_loss",
    "br_mean_loss",
    "convert_to_cdp",
    "convert_to_zcdp",
    "zcdp_dp_guarantee",
    "global_bound_homogeneous",
    "SetwiseAccountant",
]


class AccountantStateError(RuntimeError):
    """Registration attempted after consumption began."""


class ConsumeMismatchError(ValueError):
    """Consumed guarantee does not match an unspent registration."""


@dataclass(frozen=True)
class PureDP:
    """Pure eps-DP guarantee."""

    eps: float

    def __post_init__(self) -> None:
        check_positive("eps", self.eps)


@dataclass(frozen=True)
class BoundedRange:
    """alpha-bounded-range guarantee (e.g. one exponential mechanism)."""

    alpha: float

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)


@dataclass(frozen=True)
class Cdp:
    """(mu, tau)-concentrated guarantee: subgaussian loss with mean mu."""

    mu: float
    tau: float

    def __post_init__(self) -> None:
        check_nonnegative("mu", self.mu)
        check_positive("tau", self.tau)


@dataclass(frozen=True)
class Zcdp:
    """(delta, xi, rho) zero-concentrated guarantee with delta slack."""

    delta: float
    xi: float
    rho: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0,1), got {self.delta}")
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        check_nonnegative("rho", self.rho)


PrivacyClass = Union[PureDP, BoundedRange, Cdp, Zcdp]

# The accountant's file format and canonical keys: each class's tag and
# its fields, in the order the class declares them.
_FORMAT: dict[type, tuple[str, tuple[str, ...]]] = {
    PureDP: ("pure_dp", ("eps",)),
    BoundedRange: ("br", ("alpha",)),
    Cdp: ("cdp", ("mu", "tau")),
    Zcdp: ("zcdp", ("delta", "xi", "rho")),
}
_BY_TAG = {tag: (cls, names) for cls, (tag, names) in _FORMAT.items()}


def dp_mean_loss(eps: float) -> float:
    """Expected privacy loss of the worst-case pure eps-DP pair."""
    return eps * math.tanh(eps / 2.0)


def br_mean_loss(alpha: float) -> float:
    """Worst-case expected privacy loss of an alpha-BR mechanism.

    With r = alpha / (e^alpha - 1) the mean is r - 1 - ln r.  Small alpha
    goes through s = r - 1 and log1p (value ~ alpha^2/24); large alpha
    computes ln r directly, since log1p(s) with s -> -1 loses digits.
    Both routes hold full precision at the crossover.
    """
    check_positive("alpha", alpha)
    if alpha > 4.0:
        ln_r = math.log(alpha) - alpha - math.log1p(-math.exp(-alpha))
        return math.exp(ln_r) - 1.0 - ln_r
    em = math.expm1(alpha)
    s = (alpha - em) / em
    return s - math.log1p(s)


def convert_to_cdp(c: PrivacyClass) -> Cdp:
    """Subgaussian (mu, tau) summary of a guarantee, for the CDP route.

    zCDP guarantees carry delta slack and do not fit this route; convert
    them with convert_to_zcdp instead.
    """
    if isinstance(c, PureDP):
        return Cdp(mu=dp_mean_loss(c.eps), tau=c.eps)
    if isinstance(c, BoundedRange):
        # alpha = 5e-324 halves to 0.0; the next float up is the safe-side tau
        return Cdp(mu=br_mean_loss(c.alpha), tau=max(c.alpha / 2.0, math.ulp(0.0)))
    if isinstance(c, Cdp):
        return c
    if isinstance(c, Zcdp):
        raise ValueError("zCDP guarantees use the zCDP route, not the CDP route")
    raise TypeError(f"unknown privacy class {type(c).__name__}")


def convert_to_zcdp(c: PrivacyClass) -> Zcdp:
    """(delta, xi, rho) summary of a guarantee, for the zCDP route."""
    if isinstance(c, PureDP):
        return Zcdp(delta=0.0, xi=0.0, rho=c.eps**2 / 2.0)
    if isinstance(c, BoundedRange):
        rho = c.alpha**2 / 8.0
        return Zcdp(delta=0.0, xi=br_mean_loss(c.alpha) - rho, rho=rho)
    if isinstance(c, Cdp):
        return Zcdp(delta=0.0, xi=c.mu - c.tau**2 / 2.0, rho=c.tau**2 / 2.0)
    if isinstance(c, Zcdp):
        return c
    raise TypeError(f"unknown privacy class {type(c).__name__}")


def _cdp_eps(mu: float, tau_sq: float, delta: float) -> float:
    # eps_g of the subgaussian route: total mean mu, total variance tau_sq
    return mu + math.sqrt(2.0 * tau_sq * log_recip(delta))


def _zcdp_eps(xi_rho: float, rho: float, delta: float) -> float:
    # eps_g of the zCDP route: xi_rho = total xi + rho, rho = total rho
    return xi_rho + 2.0 * math.sqrt(rho * log_recip(delta))


def zcdp_dp_guarantee(z: Zcdp, delta: float) -> tuple[float, float]:
    """(eps_g, total delta) of a zCDP guarantee at conversion slack delta."""
    check_delta("delta", delta)
    return _zcdp_eps(z.xi + z.rho, z.rho, delta), delta + z.delta


def global_bound_homogeneous(
    m_dp: int,
    eps: float,
    m_br: int,
    alpha: float,
    m_cdp: int,
    mu: float,
    tau: float,
    delta: float,
) -> float:
    """Closed-form CDP-route bound for a homogeneous registered set.

    m_dp pure eps-DP, m_br alpha-BR and m_cdp (mu, tau)-CDP mechanisms at
    failure budget delta, summing the convert_to_cdp pair of each class
    with a nonzero count, formed as register forms it.  Those classes
    check their parameters as on construction; a zero count's parameters
    are ignored.  A guarantee whose terms overflow a float is refused with
    a ValueError that names it, as SetwiseAccountant.register refuses it.
    """
    if min(m_dp, m_br, m_cdp) < 0 or m_dp + m_br + m_cdp == 0:
        raise ValueError("need nonnegative counts with at least one mechanism")
    check_delta("delta", delta)
    mean = 0.0
    var = 0.0
    for count, cls, params in (
        (m_dp, PureDP, (eps,)),
        (m_br, BoundedRange, (alpha,)),
        (m_cdp, Cdp, (mu, tau)),
    ):
        if count:
            c = cls(*params)
            try:
                loss, tau_sq = _terms(c, True)[:2]
            except OverflowError:
                raise ValueError(f"cannot bound {c}: its terms overflow a float") from None
            mean += count * loss
            var += count * tau_sq
    return _cdp_eps(mean, var, delta)


def _canonical_key(c: PrivacyClass) -> tuple:
    # the exact class and its fields rounded to 1e-12
    t = type(c)
    if t is PureDP:
        return t, _round12(c.eps)
    if t is BoundedRange:
        return t, _round12(c.alpha)
    if t is Cdp:
        return t, _round12(c.mu), _round12(c.tau)
    if t is Zcdp:
        return t, _round12(c.delta), _round12(c.xi), _round12(c.rho)
    raise TypeError(f"unknown privacy class {t.__name__}")


def _round12(x: float) -> float:
    # a float subclass (numpy's float64) rounds as a float: numpy's own
    # round scales by 10^12 first, so above about 1.8e296 it overflows to
    # inf and distinct values would share a key
    if type(x) is not float and isinstance(x, float):
        x = float(x)
    return round(x, 12)


# the field whose square each class's terms take
_SQUARED = {PureDP: "eps", BoundedRange: "alpha", Cdp: "tau"}


def _terms(c: PrivacyClass, cdp: bool) -> tuple:
    """register's running-sum terms of c: mu, tau^2, xi + rho, rho, delta.

    mu and tau^2 are None for a zCDP guarantee, and may be None when cdp
    is false.  They are the float expressions of convert_to_cdp and
    convert_to_zcdp, taken from exact-float fields without building a Cdp
    or Zcdp, whose checks such fields cannot fail; a field of any other
    type (int, bool, a float subclass) goes through the conversions.
    """
    t = type(c)
    if t is Zcdp:
        return None, None, c.xi + c.rho, c.rho, c.delta
    if t is PureDP and type(c.eps) is float:
        eps = c.eps
        rho = eps**2 / 2.0
        return dp_mean_loss(eps), eps**2, rho, rho, 0.0
    if t is BoundedRange and type(c.alpha) is float:
        alpha = c.alpha
        rho = alpha**2 / 8.0
        mean = br_mean_loss(alpha)
        tau = max(alpha / 2.0, math.ulp(0.0))
        return mean, tau**2, (mean - rho) + rho, rho, 0.0
    if t is Cdp and type(c.mu) is float and type(c.tau) is float:
        mu, tau = c.mu, c.tau
        rho = tau**2 / 2.0
        return mu, tau**2, (mu - rho) + rho, rho, 0.0
    v = getattr(c, _SQUARED.get(t, ""), None)
    if isinstance(v, float):
        # numpy's float64 squares to inf with a warning where a float
        # raises OverflowError: square the field as a float first
        float(v) ** 2
    z = convert_to_zcdp(c)
    if not cdp:
        return None, None, z.xi + z.rho, z.rho, z.delta
    pair = convert_to_cdp(c)
    return pair.mu, pair.tau**2, z.xi + z.rho, z.rho, z.delta


def _template(tag: str, names: tuple[str, ...]) -> str:
    # the layout json.dumps(indent=2, sort_keys=True) gives one entry of a
    # list in the state object, with %s for each field in sorted order
    members = sorted([(name, "%s") for name in names] + [("tag", json.dumps(tag))])
    lines = ",\n".join(f"      {json.dumps(k)}: {v}" for k, v in members)
    return "    {\n" + lines + "\n    }"


# each class's entry template and its fields in the template's order
_TEMPLATES = {
    cls: (_template(tag, names), tuple(sorted(names)))
    for cls, (tag, names) in _FORMAT.items()
}
_STATE = '{\n  "consumed": %s,\n  "delta_slack": %s,\n  "registered": %s\n}'


def _entries(items: list[PrivacyClass]) -> str:
    # json.dumps writes an exact float with float.__repr__; any other type
    # keeps json.dumps's own rendering (1 for an int, true for a bool)
    if not items:
        return "[]"
    rendered = []
    for c in items:
        template, names = _TEMPLATES[type(c)]
        values = [getattr(c, name) for name in names]
        rendered.append(template % tuple([
            float.__repr__(v) if type(v) is float else json.dumps(v) for v in values
        ]))
    return "[\n" + ",\n".join(rendered) + "\n  ]"


def _field(d: dict, name: str):
    try:
        return d[name]
    except KeyError:
        raise ValueError(f"accountant JSON is missing field {name!r}") from None


def _list_field(state: dict, name: str) -> list:
    value = _field(state, name)
    if not isinstance(value, list):
        raise ValueError(
            f"accountant JSON field {name!r} must be a list, got {type(value).__name__}"
        )
    return value


def _from_dict(d: dict) -> PrivacyClass:
    if not isinstance(d, dict):
        raise ValueError(f"accountant JSON entry must be an object, got {d!r}")
    tag = d.get("tag")
    # a list or object tag is unknown too, not an unhashable lookup
    if not (isinstance(tag, str) and tag in _BY_TAG):
        raise ValueError(f"unknown tag {tag!r}")
    cls, names = _BY_TAG[tag]
    return _build(cls, names, [_field(d, name) for name in names])


def _build(cls, names: tuple[str, ...], values: list):
    # the checks meet a JSON string, null, list or object with a TypeError and
    # an integer beyond the float range with an OverflowError: name the field
    try:
        return cls(*values)
    except (TypeError, OverflowError):
        for name, v in zip(names, values):
            if not isinstance(v, (int, float)) or abs(v) > sys.float_info.max:
                raise ValueError(
                    f"accountant JSON field {name!r} must be a number in the float range"
                ) from None
        raise


class SetwiseAccountant:
    """Tracks a registered set of guarantees and its global bound.

    Single-writer: register everything first, then consume.  The first
    consume freezes registration.  The global bound covers any adaptive
    order and subset of the registered set, so it never changes after
    registration.
    """

    def __init__(self, delta_slack: float = 1e-6) -> None:
        check_delta("delta_slack", delta_slack)
        self.delta_slack = delta_slack
        self._registered: list[PrivacyClass] = []
        self._consumed: list[PrivacyClass] = []
        # unspent registrations: canonical key -> exact value -> the
        # registered objects equal to it, earliest first
        self._unspent: dict[tuple, dict[PrivacyClass, deque[PrivacyClass]]] = {}
        # cached CDP-route sums; None marks a zCDP registration present
        self._mu_sum: float | None = 0.0
        self._tau_sq_sum: float | None = 0.0
        self._xi_rho_sum = 0.0
        self._rho_sum = 0.0
        self._delta_sum = 0.0

    @property
    def registered(self) -> tuple[PrivacyClass, ...]:
        return tuple(self._registered)

    @property
    def consumed(self) -> tuple[PrivacyClass, ...]:
        return tuple(self._consumed)

    def register(self, c: PrivacyClass) -> "SetwiseAccountant":
        """Add a guarantee to the set; only allowed before any consume.

        Its terms are computed before anything is stored: a guarantee
        whose squared scale overflows raises ValueError and leaves the
        accountant unchanged.
        """
        if self._consumed:
            raise AccountantStateError(
                "registration is frozen once consumption has started"
            )
        key = _canonical_key(c)
        try:
            mu, tau_sq, xi_rho, rho, delta = _terms(c, self._mu_sum is not None)
        except OverflowError:
            raise ValueError(f"cannot register {c}: its terms overflow a float") from None
        self._registered.append(c)
        same_key = self._unspent.setdefault(key, {})
        same_key.setdefault(c, deque()).append(c)
        if mu is None or self._mu_sum is None:
            self._mu_sum = self._tau_sq_sum = None
        else:
            self._mu_sum += mu
            self._tau_sq_sum += tau_sq
        self._xi_rho_sum += xi_rho
        self._rho_sum += rho
        self._delta_sum += delta
        return self

    def consume(self, c: PrivacyClass) -> "SetwiseAccountant":
        """Mark one registered guarantee as spent and record it.

        The candidates are the unspent registrations whose fields agree
        with ``c`` after canonical rounding to 1e-12.  Among them the
        earliest registration exactly equal to ``c`` is spent; if none is
        equal but all candidates hold one value, the earliest candidate
        is spent.  No candidate, or several distinct candidate values
        none of which equals ``c``, raises ConsumeMismatchError.  The
        registered object, not ``c``, is recorded as consumed.  Costs one
        key computation and O(1) dictionary operations.
        """
        key = _canonical_key(c)
        same_key = self._unspent.get(key)
        if not same_key:
            raise ConsumeMismatchError(f"no unspent registration matches {c}")
        if c in same_key:
            value = c
        elif len(same_key) == 1:
            value = next(iter(same_key))
        else:
            names = ", ".join(str(v) for v in same_key)
            raise ConsumeMismatchError(
                f"{c} equals no unspent registration and is ambiguous "
                f"within rounding between {names}"
            )
        equal = same_key[value]
        self._consumed.append(equal.popleft())
        if not equal:
            del same_key[value]
            if not same_key:
                del self._unspent[key]
        return self

    def global_bound_cdp(self, delta: float | None = None) -> float:
        """eps_g of the subgaussian route at failure budget delta.

        Valid only when no zCDP guarantee was registered.
        """
        d = self.delta_slack if delta is None else delta
        check_delta("delta", d)
        if not self._registered:
            raise ValueError("no registered mechanisms")
        if self._mu_sum is None:
            raise ValueError("zCDP registrations present; use global_bound_zcdp")
        return _cdp_eps(self._mu_sum, self._tau_sq_sum, d)

    def global_bound_zcdp(self, delta: float | None = None) -> tuple[float, float]:
        """(eps_g, total delta) of the zCDP route at conversion slack delta.

        Total delta adds the per-registration slacks on top of the
        conversion slack.
        """
        d = self.delta_slack if delta is None else delta
        check_delta("delta", d)
        if not self._registered:
            raise ValueError("no registered mechanisms")
        return _zcdp_eps(self._xi_rho_sum, self._rho_sum, d), d + self._delta_sum

    def to_json(self) -> str:
        """The state as json.dumps(state, indent=2, sort_keys=True) writes it."""
        return _STATE % (
            _entries(self._consumed),
            json.dumps(self.delta_slack),
            _entries(self._registered),
        )

    @classmethod
    def from_json(cls, payload: str) -> "SetwiseAccountant":
        """Rebuild an accountant by replaying its registrations and consumes.

        A missing field, or a state or list field of the wrong JSON type,
        raises ValueError naming it.
        """
        state = json.loads(payload)
        if not isinstance(state, dict):
            raise ValueError(f"accountant JSON must be an object, got {type(state).__name__}")
        acc = _build(cls, ("delta_slack",), [_field(state, "delta_slack")])
        for d in _list_field(state, "registered"):
            acc.register(_from_dict(d))
        for d in _list_field(state, "consumed"):
            acc.consume(_from_dict(d))
        return acc

"""Frozen, JSON-loadable fault plans (the chaos counterpart of
:class:`~repro.scenarios.ScenarioSpec`).

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultSpec` entries, each scheduling one typed fault against one
registered injection site.  Validation is strict and front-loaded: a
plan that loads is a plan the injector can run, and every problem is a
:class:`FaultPlanError` naming the offending spec — never a mid-export
``KeyError``.

Two surface syntaxes build the same object:

JSON plan file (``fleet chaos --plan``, ``--fault-spec PLAN.json``)::

    {
      "kind": "FaultPlan",
      "seed": 20110611,
      "faults": [
        {"site": "writer.block.write", "kind": "torn-write", "after": 3,
         "once": true}
      ]
    }

Inline shorthand (``--fault-spec``)::

    writer.block.done:after=3
    writer.block.write:kind=io-error,errno=ENOSPC,after=2,count=2
    distributed.connect.dial:kind=dial-refuse,count=2;distributed.heartbeat:after=1

``SITE`` alone arms the site's default kind on its first invocation;
``;`` separates multiple specs.
"""

from __future__ import annotations

import errno as _errno
import json
import os
from dataclasses import asdict, dataclass, field

from repro.faults.sites import (
    FAULT_KINDS,
    KIND_FSYNC_ERROR,
    KIND_IO_ERROR,
    SITE_CATALOG,
)

PLAN_KIND = "FaultPlan"

#: Schema version of the plan JSON payload.
PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan that cannot be validated (bad site, kind or field)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultPlanError(message)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *which* site, *what* kind, *when* it fires.

    Firing schedule, evaluated per process against the site's invocation
    counter: invocations below ``after`` never fire; from ``after``
    onward the spec fires on every invocation (``probability`` of one)
    or on a seeded coin flip, until it has fired ``count`` times
    (``None`` = no limit).  ``once`` additionally takes a cross-process
    lock through an ``O_EXCL`` marker file, so exactly one process in
    the whole run fires the spec — "one worker dies", not "every worker
    dies at its own third block".
    """

    site: str
    kind: str
    after: int = 1
    count: "int | None" = 1
    probability: "float | None" = None
    once: bool = False
    #: Symbolic errno for ``io-error``/``fsync-error`` (e.g. ``ENOSPC``).
    errno: str = "ENOSPC"
    #: Sleep length of a ``delay`` fault, seconds.
    delay_seconds: float = 0.05
    #: Fraction of the payload a ``torn-write`` leaves behind.
    fraction: float = 0.5

    def __post_init__(self) -> None:
        site = SITE_CATALOG.get(self.site)
        _require(
            site is not None,
            f"unknown fault site {self.site!r}; registered sites: "
            f"{', '.join(sorted(SITE_CATALOG))}",
        )
        _require(
            self.kind in FAULT_KINDS,
            f"unknown fault kind {self.kind!r}; kinds: {', '.join(FAULT_KINDS)}",
        )
        _require(
            self.kind in site.kinds,
            f"site {self.site!r} does not support kind {self.kind!r} "
            f"(supported: {', '.join(site.kinds)})",
        )
        _require(
            isinstance(self.after, int) and self.after >= 1,
            f"{self.site}: after must be an integer >= 1 (got {self.after!r})",
        )
        _require(
            self.count is None or (isinstance(self.count, int) and self.count >= 1),
            f"{self.site}: count must be null or an integer >= 1 "
            f"(got {self.count!r})",
        )
        if self.probability is not None:
            _require(
                isinstance(self.probability, float) and 0.0 < self.probability <= 1.0,
                f"{self.site}: probability must be a float in (0, 1] "
                f"(got {self.probability!r})",
            )
        if self.kind in (KIND_IO_ERROR, KIND_FSYNC_ERROR):
            _require(
                isinstance(self.errno, str)
                and isinstance(getattr(_errno, self.errno, None), int),
                f"{self.site}: errno must be a symbolic errno name like "
                f"ENOSPC or EIO (got {self.errno!r})",
            )
        _require(
            isinstance(self.delay_seconds, (int, float)) and self.delay_seconds >= 0,
            f"{self.site}: delay_seconds must be >= 0 (got {self.delay_seconds!r})",
        )
        _require(
            isinstance(self.fraction, float) and 0.0 < self.fraction < 1.0,
            f"{self.site}: fraction must be a float in (0, 1) "
            f"(got {self.fraction!r})",
        )

    def errno_value(self) -> int:
        return getattr(_errno, self.errno)


_SPEC_FIELDS = {
    "site",
    "kind",
    "after",
    "count",
    "probability",
    "once",
    "errno",
    "delay_seconds",
    "fraction",
}

# Shorthand keys parsed as these types; "kind" and "errno" stay strings.
_INT_KEYS = ("after", "count")
_FLOAT_KEYS = ("probability", "delay_seconds", "fraction")
_BOOL_KEYS = ("once",)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the ordered faults it schedules.

    Frozen like the specs it holds; the seed drives every probabilistic
    firing decision through per-spec ``SeedSequence`` streams, so a plan
    replayed against the same export fires identically.
    """

    seed: int = 0
    faults: "tuple[FaultSpec, ...]" = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self) -> None:
        _require(
            isinstance(self.seed, int) and self.seed >= 0,
            f"plan seed must be a non-negative integer (got {self.seed!r})",
        )
        _require(len(self.faults) > 0, "a fault plan must schedule at least one fault")

    def to_json(self) -> str:
        payload = {
            "kind": PLAN_KIND,
            "version": PLAN_VERSION,
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.faults],
        }
        if self.name:
            payload["name"] = self.name
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")
        _require(isinstance(payload, dict), "fault plan must be a JSON object")
        kind = payload.get("kind", PLAN_KIND)
        _require(
            kind == PLAN_KIND,
            f"fault plan kind must be {PLAN_KIND!r} (got {kind!r})",
        )
        version = payload.get("version", PLAN_VERSION)
        _require(
            version == PLAN_VERSION,
            f"unsupported fault plan version {version!r} "
            f"(this build reads version {PLAN_VERSION})",
        )
        unknown = set(payload) - {"kind", "version", "seed", "faults", "name"}
        _require(
            not unknown,
            f"fault plan has unknown top-level keys: {', '.join(sorted(unknown))}",
        )
        raw_faults = payload.get("faults")
        _require(isinstance(raw_faults, list), "fault plan 'faults' must be a list")
        faults = []
        for index, raw in enumerate(raw_faults):
            _require(
                isinstance(raw, dict), f"faults[{index}] must be a JSON object"
            )
            unknown = set(raw) - _SPEC_FIELDS
            _require(
                not unknown,
                f"faults[{index}] has unknown keys: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(_SPEC_FIELDS))})",
            )
            _require("site" in raw, f"faults[{index}] is missing 'site'")
            _require("kind" in raw, f"faults[{index}] is missing 'kind'")
            faults.append(FaultSpec(**raw))
        return cls(
            seed=payload.get("seed", 0),
            faults=tuple(faults),
            name=payload.get("name", ""),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise FaultPlanError(f"cannot read fault plan {path}: {error}")
        return cls.from_json(text)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one inline ``SITE[:key=value,...]`` shorthand spec."""
    site, _, options = text.strip().partition(":")
    _require(bool(site), f"empty fault-spec site in {text!r}")
    catalog_site = SITE_CATALOG.get(site)
    _require(
        catalog_site is not None,
        f"unknown fault site {site!r}; registered sites: "
        f"{', '.join(sorted(SITE_CATALOG))}",
    )
    fields: "dict[str, object]" = {"site": site, "kind": catalog_site.kinds[0]}
    if options:
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            _require(
                bool(sep) and bool(key) and bool(value),
                f"malformed fault-spec option {item!r} (expected key=value)",
            )
            _require(
                key in _SPEC_FIELDS and key != "site",
                f"unknown fault-spec option {key!r} "
                f"(known: {', '.join(sorted(_SPEC_FIELDS - {'site'}))})",
            )
            if key in _INT_KEYS:
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise FaultPlanError(
                        f"fault-spec option {key} must be an integer (got {value!r})"
                    )
            elif key in _FLOAT_KEYS:
                try:
                    fields[key] = float(value)
                except ValueError:
                    raise FaultPlanError(
                        f"fault-spec option {key} must be a number (got {value!r})"
                    )
            elif key in _BOOL_KEYS:
                _require(
                    value in ("0", "1", "true", "false"),
                    f"fault-spec option {key} must be 0/1/true/false (got {value!r})",
                )
                fields[key] = value in ("1", "true")
            else:
                fields[key] = value
    return FaultSpec(**fields)  # type: ignore[arg-type]


def plan_from_cli_arg(text: str, seed: int = 0) -> FaultPlan:
    """Resolve a ``--fault-spec`` argument: a plan file path, or one or
    more ``;``-separated inline shorthand specs (plan seed = ``seed``)."""
    if os.path.exists(text) or text.endswith(".json"):
        return FaultPlan.load(text)
    specs = tuple(
        parse_fault_spec(piece) for piece in text.split(";") if piece.strip()
    )
    _require(len(specs) > 0, f"empty --fault-spec {text!r}")
    return FaultPlan(seed=seed, faults=specs)

"""Experiment configuration, deterministic parallel execution, persistence.

A single JSON document describes one experiment: which diagnostic to run
(`kind`), the model operator (`model`), the disorder ensemble (`ensemble`),
numerical knobs (`numerics`), output location and formats (`output`), and
kind-specific parameters (`params`). `validate` returns a list of violation
strings (budget problems carry a "budget:" prefix); `run` executes a valid
config and writes a CSV table, a JSON mirror, and a metadata sidecar before
returning.

Each config field is declared once, as a `(default, rule)` entry: the
sections' fields in the schema `_SECTIONS`, a kind's params in its record.
`ExperimentConfig.from_dict` takes its defaults from the entries, and
`validate` walks their rules; a rule maps `(path, value)` to a list of
violations. The keys of a schema are the allowed fields.

Each kind is described once, by its record in the kind table `_KINDS`:
params entries `(default, rule)`, least ensemble count, the box sides its
budget covers, the field of its node grid, result columns with their
dtypes, the check of the rules that need the model or another field, and
runner. `KINDS` and the runner dict `_RUNNERS`, through which `run`
dispatches, derive from it.

Every result table comes out of one path, units -> map -> fold -> table:
a runner maps its units through `_chunked_map` (per seed with
`_per_seed_map`, per block-pair instance with `_instance_map`), folds the
results in order and returns `(rows, metadata)`; `run` builds the one
`ResultTable` from the kind's columns and the run metadata, and emits it.
region_scan composes these pipelines: its unit is one (lambda, alpha)
point, whose serial sweep over the seeds runs the monitors of `rescaling`
and the probe of `decay_probe`, which reads the side-2L monitor's
full-box spectrum, and folds them into the point's verdict.

Execution is deterministic by construction: work splits into units that
depend only on their own seed (or instance index), workers share nothing
mutable, and a single reducer folds unit results in seed order. These
runners are the only pipeline of each kind (the library holds the units,
plans and folds, not a second serial copy), and the output bytes do not
depend on the worker count.

Model objects are built through the library, never copied here: the
operator spec comes from `ExperimentConfig.operator_spec`, the interaction
from `InteractionSpec.from_dict` (the `model.interaction` schema), sector
dimensions from the spec's `ConfigIndex`, templates from the operator
layer's shared cache, default configurations and the monitor-box rules
from `diagnostics` (`probe_pairs`, `corner_block`, `check_monitor_box`).

Boxes are always centered at the origin. `model.L` is the side of the box
the model operator lives on; kinds that compare scales derive their boxes
from it (b_monitor runs at side L; rescaling at sides L and 2L; region_scan
monitors at sides L and 2L with the decay probe on the larger box).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configspace import SECTORS, Box, Configuration, hausdorff_dist, occupation
from .diagnostics import (
    B_MONITOR_QUAD_POINTS,
    DEFAULT_ETA,
    DEFAULT_QUAD_POINTS,
    Estimate,
    check_monitor_box,
    corner_block,
    decay_fit,
    default_probe_interval,
    monitor_plan,
    monitor_reduce,
    monitor_seed_rows,
    monitor_spectra,
    probe_pairs,
    probe_samples,
    realization_spectrum,
    rescaling_check,
    scan_verdict,
    wegner_samples,
)
from .disorder import DensitySpec, sample
from .errors import BudgetError, magnitude
from .operator import (
    BUILTIN_INTERACTIONS,
    InteractionSpec,
    OperatorSpec,
    assemble,
    gershgorin_interval,
)
from .spectral import (
    DENSE_DIAG_CAP,
    EnergyInterval,
    composite_green_check,
    composite_spectral_data,
    spectral_data,
    subadditivity_check,
)
from .streams import Stream

UNIT_CAP = 100_000  # the most seeds, instances or region samples a run builds


class ConfigError(ValueError):
    """A config failed validation; `violations` lists every problem."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _merge(defaults: dict, raw) -> dict:
    """Defaults overlaid with raw values; unknown raw keys are kept."""
    out = copy.deepcopy(defaults)
    if not isinstance(raw, dict):
        return raw
    for key, value in raw.items():
        if key in out and isinstance(out[key], dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kind, model, ensemble, numerics, output, params."""

    kind: str
    model: dict
    ensemble: dict
    numerics: dict
    output: dict
    params: dict
    extra: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Overlay raw sections on the defaults; nothing is rejected here.

        Unknown keys survive the merge so validate() can report them by
        name instead of silently dropping them.
        """
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        kind = raw.get("kind")
        params = _KINDS[kind].params if kind in KINDS else {}
        schemas = {**_SECTIONS, "params": params}
        sections = {
            name: _merge(_defaults(schema), raw.get(name, {}))
            for name, schema in schemas.items()
        }
        extra = {k: raw[k] for k in raw if k != "kind" and k not in schemas}
        return cls(kind=kind, extra=extra, **sections)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in (*_SECTIONS, "params"):
            out[name] = copy.deepcopy(getattr(self, name))
        out.update(copy.deepcopy(self.extra))
        return out

    # ------------------------------------------------------- model builders

    def interaction_spec(self) -> InteractionSpec:
        return InteractionSpec.from_dict(self.model["interaction"])

    def density_spec(self) -> DensitySpec:
        return DensitySpec.from_dict(self.model["density"])

    def operator_spec(self, side: int = None, n: int = None) -> OperatorSpec:
        """The model on the centered box; side and n default to model.L, model.n."""
        side = int(self.model["L"]) if side is None else int(side)
        return OperatorSpec(
            box=Box.centered(int(self.model["d"]), side),
            n=int(self.model["n"]) if n is None else int(n),
            sector=self.model["sector"],
            lam=float(self.model["lambda"]),
            interaction=self.interaction_spec(),
            norm=self.model["norm"],
        )

    def seeds(self) -> list:
        base = int(self.ensemble["base_seed"])
        return [base + i for i in range(int(self.ensemble["count"]))]


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file, then set each (dotted path, value) override
    in it, such as ("model.lambda", 15), making missing objects on the way."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    for dotted, value in overrides:
        *parents, leaf = dotted.split(".")
        node = raw
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    return ExperimentConfig.from_dict(raw)


# ------------------------------------------------------------------ validate


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A finite float, or an integer that converts to one."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer past the float range
        return False


def _shown(value) -> str:
    """repr(value), with every integer spelled by magnitude."""
    if _is_int(value):
        return magnitude(value)
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        items = (f"{k!r}: {_shown(v)}" for k, v in value.items())
        return f"{{{', '.join(items)}}}"
    return repr(value)


def _rule(requirement: str, ok: Callable) -> Callable:
    """The rule "<path> must <requirement>, got <value>" unless ok(value)."""

    def rule(path: str, value) -> list:
        return [] if ok(value) else [f"{path} must {requirement}, got {_shown(value)}"]

    return rule


def _fields(schema: dict, suffix: str = "") -> Callable:
    """The rule of an object: its unknown fields, then each field's rule in
    schema order. A field whose rule is None is left to the kind's check."""

    def rule(path: str, obj) -> list:
        if not isinstance(obj, dict):
            return [f"{path} must be an object"]
        out = [
            f"unknown {path} field {key!r}{suffix}"
            for key in sorted(set(obj) - set(schema))
        ]
        for key, (_, check) in schema.items():
            if check is not None:
                out += check(f"{path}.{key}", obj.get(key))
        return out

    return rule


def _at_least(least: int, requirement: str = None) -> Callable:
    """The rule of an integer >= least."""
    requirement = requirement or f"be an integer >= {least}"
    return _rule(requirement, lambda v: _is_int(v) and v >= least)


def _one_of(options: tuple) -> Callable:
    return _rule(f"be one of {options}", lambda v: v in options)


def _is_list_of(v, ok) -> bool:
    """A nonempty list whose every entry passes ok."""
    return isinstance(v, list) and bool(v) and all(ok(x) for x in v)


def _defaults(schema: dict) -> dict:
    return {key: default for key, (default, _) in schema.items()}


def _density_rule(path: str, value) -> list:
    try:
        DensitySpec.from_dict(value)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        return [f"{path}: {err}"]
    return []


_POSITIVE_INT = _at_least(1, "be a positive integer")
_NONNEGATIVE_INT = _at_least(0, "be a nonnegative integer")
_FINITE = _rule("be a finite number", _is_num)
_NONNEGATIVE = _rule("be a finite number >= 0", lambda v: _is_num(v) and v >= 0)
_NULL_OR_POSITIVE = _rule(
    "be null or positive", lambda v: v is None or (_is_num(v) and v > 0)
)

# Each config field once, as name -> (default, rule). from_dict overlays a
# raw config on the defaults, validate walks the rules in this order, and
# unknown fields are the keys missing here.
_INTERACTION = {
    "builtin": ("none", _one_of(BUILTIN_INTERACTIONS)),
    "coupling": (0.0, _FINITE),
    "range": (1, _POSITIVE_INT),
}
_SECTIONS = {
    "model": {
        "d": (1, _rule(
            "be an integer in [1, 3]", lambda v: _is_int(v) and 1 <= v <= 3
        )),
        "L": (8, _POSITIVE_INT),
        "n": (1, _POSITIVE_INT),
        "sector": ("distinguishable", _one_of(SECTORS)),
        "lambda": (1.0, _NONNEGATIVE),
        "norm": ("l1", _rule("be 'l1' or 'linf'", lambda v: v in ("l1", "linf"))),
        "interaction": (_defaults(_INTERACTION), _fields(_INTERACTION)),
        "density": ({"kind": "uniform", "params": [-0.5, 0.5]}, _density_rule),
    },
    # the least count depends on the kind; validate adds its rule
    "ensemble": {"base_seed": (0, _NONNEGATIVE_INT), "count": (8, None)},
    "numerics": {
        "s": (0.5, _rule("lie in (0,1)", lambda v: _is_num(v) and 0 < v < 1)),
        "eta": (None, _NULL_OR_POSITIVE),
        "quad_points": (None, _rule(
            "be null or a positive integer",
            lambda v: v is None or (_is_int(v) and v >= 1),
        )),
    },
    "output": {
        "directory": ("out", _rule(
            "be a nonempty string", lambda v: isinstance(v, str) and v != ""
        )),
        # `in` on a tuple compares, so an unhashable entry is reported, not raised
        "formats": (["csv", "json"], _rule(
            "be a nonempty subset of [csv, json]",
            lambda v: _is_list_of(v, lambda f: f in ("csv", "json")),
        )),
    },
}


def _as_configuration(obj, spec: OperatorSpec) -> Configuration:
    """A list of sites with integer coordinates, in the model's sector."""
    if not isinstance(obj, list):
        raise ValueError(f"a configuration is a list of sites, got {_shown(obj)}")
    cfg = Configuration(sites=tuple(_site(s) for s in obj), sector=spec.sector)
    for site in cfg.sites:
        if not spec.box.contains(site):
            raise ValueError(f"site {site} lies outside the box")
    if cfg.n != spec.n:
        raise ValueError(f"configuration has {cfg.n} particles, model has {spec.n}")
    return cfg


def _site(coords) -> tuple:
    """A site from its coordinates, which must be JSON integers."""
    site = tuple(int(c) for c in coords)
    if not all(_is_int(c) for c in coords):
        raise ValueError(f"site coordinates must be integers, got {_shown(coords)}")
    if not all(-(2**63) <= c < 2**63 for c in site):
        raise ValueError(
            f"site coordinates must lie in [-2^63, 2^63), got {_shown(coords)}"
        )
    return site


def _block_candidates(config: ExperimentConfig):
    """(side, n) choices whose block dimension fits under params.dim_cap.

    Sides stop at max(dim_cap, model.n): a box with more sites than
    particles holds no sector of dimension below its site count, which is
    at least its side. Particle numbers stop at the box's site count in
    the exclusion sectors, and at the first dimension over the cap for
    bosons and distinguishable particles, whose dimension grows with n.
    """
    cap, n_max = int(config.params["dim_cap"]), int(config.model["n"])
    d = int(config.model["d"])
    exclusion = config.model["sector"] in ("fermion", "hardcore")
    for side in range(2, min(int(config.model["L"]), max(cap, n_max)) + 1):
        for n in range(1, (min(n_max, side**d) if exclusion else n_max) + 1):
            try:
                dim = config.operator_spec(side, n).dim
            except ValueError:  # the interaction spans the box, for every n
                break
            if dim <= cap:
                yield side, n
            elif not exclusion:
                break


def _wegner_marks(config: ExperimentConfig, spec: OperatorSpec):
    """Materialize x, y, u1, u2 (defaults: corner block, x, and the first
    site of each)."""
    p = config.params
    if p["x"] is None and spec.n > spec.box.side:
        raise ValueError(
            f"box side {spec.box.side} too small for the default x, a block "
            f"of {spec.n} sites"
        )
    x = _as_configuration(p["x"], spec) if p["x"] is not None else corner_block(spec)
    y = _as_configuration(p["y"], spec) if p["y"] is not None else x
    u1 = _site(p["u1"]) if p["u1"] is not None else x.sites[0]
    u2 = _site(p["u2"]) if p["u2"] is not None else y.sites[0]
    return x, y, u1, u2


def _wegner_grid(config: ExperimentConfig, spec: OperatorSpec) -> list:
    """The z grid: params.z_grid, by default z_count points across the
    spectral enclosure at height z_im (which needs the operator template)."""
    p = config.params
    if p["z_grid"] is not None:
        return [complex(float(re), float(im)) for re, im in p["z_grid"]]
    lo, hi = gershgorin_interval(spec, config.density_spec())
    return [
        complex(v, float(p["z_im"])) for v in np.linspace(lo, hi, int(p["z_count"]))
    ]


def _resolve_pairs(config: ExperimentConfig, spec: OperatorSpec):
    p = config.params
    if p["pairs"] is not None:
        return [
            (_as_configuration(px, spec), _as_configuration(py, spec))
            for px, py in p["pairs"]
        ]
    return probe_pairs(spec, int(p["max_points"]))


def validate(config) -> list:
    """Every violation in the config, as human-readable strings.

    An empty list means runnable. Budget problems (work or memory caps) are
    prefixed with "budget:" so callers can distinguish them from plain
    validation failures.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)

    if config.kind not in KINDS:
        return [f"kind must be one of {', '.join(KINDS)}, got {config.kind!r}"]
    out = [f"unknown config section {key!r}" for key in config.extra]
    malformed = [
        f"{name} must be an object"
        for name in (*_SECTIONS, "params")
        if not isinstance(getattr(config, name), dict)
    ]
    if malformed:
        return out + malformed

    kind = _KINDS[config.kind]
    least = kind.min_count
    count = _at_least(least, f"be an integer >= {least} for kind {config.kind}")
    for name, schema in _SECTIONS.items():
        if name == "ensemble":
            schema = {**schema, "count": (None, count)}
        out += _fields(schema)(name, getattr(config, name))
    base, count = config.ensemble["base_seed"], config.ensemble["count"]
    if _is_int(base) and _is_int(count) and base + count > 2**64:
        out.append(
            "ensemble.base_seed + ensemble.count - 1, the last seed, must be "
            f"below 2^64, got {magnitude(base + count - 1)}"
        )
    if out:
        # structural problems make the model unbuildable; stop here
        return out

    # the model spec itself (catches interaction range >= side, fermion
    # capacity, and anything else the operator layer validates)
    try:
        spec = config.operator_spec()
    except (ValueError, TypeError) as err:
        return [f"model: {err}"]

    out += _fields(kind.params, f" for kind {config.kind}")("params", config.params)
    kind.check(config, spec, out)
    dim = config.params.get("dim_cap")  # without a budget side, the block cap
    for scale in kind.budget_sides:
        side = scale * int(config.model["L"])
        index = config.operator_spec(side).config_index
        # from 10^21 on, the dimension is spelled from its logarithm and
        # never built
        log_dim = index.log10_size()
        if log_dim >= 21:
            shown = f"~10^{math.floor(log_dim) if log_dim < math.inf else log_dim}"
        elif index.size > DENSE_DIAG_CAP:
            shown = magnitude(index.size)
        else:
            dim = index.size
            continue
        out.append(
            f"budget: configuration space dimension {shown} at box side "
            f"{magnitude(side)} exceeds the dense-diagonalization cap {DENSE_DIAG_CAP}"
        )
    # a run holds its node grid against the dimension in dense arrays, which
    # may hold no more entries than the largest matrix the dense cap admits
    field, nodes = kind.nodes(config) if kind.nodes else (None, None)
    if _is_int(nodes) and _is_int(dim) and nodes * dim > DENSE_DIAG_CAP**2:
        out.append(
            f"budget: {field} {magnitude(nodes)} times dimension {dim} exceeds "
            f"{DENSE_DIAG_CAP}^2 entries, the largest dense matrix under "
            "the dense-diagonalization cap"
        )
    for path in ("ensemble.count", "params.instances", "params.omega_samples"):
        section, _, field = path.partition(".")
        units = getattr(config, section).get(field)
        if _is_int(units) and units > UNIT_CAP:
            out.append(
                f"budget: {path} {magnitude(units)} exceeds the unit cap {UNIT_CAP}"
            )
    return out


def config_warnings(config) -> list:
    """Settings that validate but have no effect, as human-readable strings.

    They do not make a config invalid: `validate` does not list them.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    inter = config.model.get("interaction") if isinstance(config.model, dict) else None
    if not isinstance(inter, dict):
        return []
    coupling = inter.get("coupling", 0.0)
    if inter.get("builtin", "none") == "none" and _is_num(coupling) and coupling != 0:
        return [f"model.interaction.coupling {coupling} is ignored with builtin 'none'"]
    return []


def _check_probe(config, spec, out: list) -> None:
    p = config.params
    if _is_int(p["max_points"]) and p["max_points"] >= 3:
        try:
            _resolve_pairs(config, spec)
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            out.append(f"params.pairs: {err}")
    iv = p["interval"]  # after the pairs, whose message comes first
    if iv is not None and not (_is_list_of(iv, _is_num) and len(iv) == 2):
        out.append(f"params.interval must be null or [lo, hi], got {_shown(iv)}")
    elif iv is not None and not iv[1] - iv[0] >= 1.0 - 1e-12:
        out.append(f"params.interval must have length >= 1, got {iv[1] - iv[0]}")
    elif iv is not None and not math.isfinite(iv[1] - iv[0]):
        out.append(f"params.interval must have a finite length, got {iv[1] - iv[0]}")


def _is_z(z) -> bool:
    """A [re, im] pair of finite numbers."""
    return isinstance(z, list) and len(z) == 2 and all(_is_num(v) for v in z)


def _check_wegner(config, spec, out: list) -> None:
    p = config.params
    if float(config.model["lambda"]) == 0.0:
        out.append("model.lambda: the conditional check needs lambda != 0")
    zg = p["z_grid"]
    if zg is None:
        out += _POSITIVE_INT("params.z_count", p["z_count"])
        out += _FINITE("params.z_im", p["z_im"])
    elif not isinstance(zg, list) or not all(_is_z(z) for z in zg):
        out.append(
            "params.z_grid entries must be [re, im] pairs of finite numbers, "
            f"got {_shown(zg)}"
        )
        return
    try:
        x, y, u1, u2 = _wegner_marks(config, spec)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as err:
        out.append(f"params: {err}")
        return
    if zg is not None and not zg:
        out.append("params.z_grid must not be empty")
    if occupation(x, u1) < 1:
        out.append(f"params.u1: x has no particle at {u1}")
    if occupation(y, u2) < 1:
        out.append(f"params.u2: y has no particle at {u2}")


def _check_monitor_box(config, spec, out: list) -> None:
    try:
        check_monitor_box(spec)
    except ValueError as err:
        out.append(f"model.L: {err}")


def _check_rescaling(config, spec, out: list) -> None:
    a = config.params["a"]
    if _is_num(a) and float(a) == 0.0:
        out.append("params.a must be positive")
    _check_monitor_box(config, spec, out)


def _check_region_scan(config, spec, out: list) -> None:
    L = int(config.model["L"])
    if config.interaction_spec().builtin == "onsite":
        out.append(
            "model.interaction: region_scan sweeps pair couplings; "
            "onsite is not supported here"
        )
    alphas = config.params["alphas"]
    irange = config.model["interaction"].get("range", 1)
    if (
        isinstance(alphas, list)
        and any(_is_num(a) and float(a) != 0 for a in alphas)
        and _is_int(irange)
        and irange >= L
    ):
        out.append(
            f"model.interaction.range {irange} must be smaller than the "
            f"monitor box side {L} when the scan sweeps nonzero couplings"
        )
    _check_monitor_box(config, spec, out)
    if not out:
        try:
            probe_pairs(config.operator_spec(side=2 * L))
        except ValueError as err:
            out.append(f"model.L: {err}")


def _check_blocks(config, spec, out: list) -> None:
    cap = config.params["dim_cap"]
    if not _is_int(cap) or cap < 1:
        return
    if next(_block_candidates(config), None) is None:
        out.append(
            f"params.dim_cap {cap} admits no block on boxes up to side "
            f"{config.model['L']}"
        )
    if cap * cap > DENSE_DIAG_CAP:
        out.append(
            f"budget: composite dimension up to {magnitude(cap * cap)} exceeds "
            f"the dense-diagonalization cap {DENSE_DIAG_CAP}"
        )


def _check_composite(config, spec, out: list) -> None:
    _check_blocks(config, spec, out)
    # after the block checks, whose messages come first
    p = config.params
    out += _at_least(8)("params.quadrature_points", p["quadrature_points"])


# -------------------------------------------------------------- result table


@dataclass(frozen=True)
class ResultTable:
    """Typed columns, plain-value rows, and run metadata.

    dtypes name the cell type per column ("int", "float", "str", "bool").
    Every row carries the seed(s) that produced it in its `seeds` column.
    """

    columns: tuple
    dtypes: tuple
    rows: tuple
    metadata: dict

    def __post_init__(self):
        if len(self.columns) != len(self.dtypes):
            raise ValueError("one dtype per column required")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} != column count {len(self.columns)}"
                )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def emit(table: ResultTable, directory, basename: str, formats=("csv", "json")):
    """Write the table (CSV and/or JSON mirror) plus a metadata sidecar.

    CSV cells are comma-separated with minimal double-quote quoting and
    CRLF row endings; floats carry 17 significant digits with a '.'
    decimal point, enough to reproduce the binary values exactly. Both
    JSON files are strict JSON: non-finite floats are written as the
    strings "inf", "-inf" and "nan", spelled as in the CSV. Every file is
    rendered before the first is written, so a table that JSON cannot hold
    leaves no file behind. Returns the list of written paths.
    """
    head = {"columns": table.columns, "dtypes": table.dtypes}
    texts = {}
    if "csv" in formats:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(table.columns)
        writer.writerows([_format_cell(v) for v in row] for row in table.rows)
        texts["csv"] = buf.getvalue()
    if "json" in formats:
        texts["json"] = _json_text({**head, "rows": table.rows}, sort_keys=False)
    meta = {**head, "metadata": table.metadata}
    texts["meta.json"] = _json_text(meta, sort_keys=True)
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {directory}: {err}") from err
    written = []
    for suffix, text in texts.items():
        path = directory / f"{basename}.{suffix}"
        try:
            path.write_text(text, encoding="utf-8", newline="")
        except OSError as err:
            raise OSError(f"cannot write {path}: {err}") from err
        written.append(str(path))
    return written


def _json_text(obj, sort_keys: bool) -> str:
    """obj as strict JSON text, one space per indent level, newline-ended."""
    text = json.dumps(_jsonable(obj), indent=1, allow_nan=False, sort_keys=sort_keys)
    return text + "\n"


def _jsonable(value):
    """Copy of value made of JSON types, non-finite floats as strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else _format_cell(value)
    raise TypeError(f"not JSON-serializable: {type(value)}")


# ------------------------------------------------------------- parallel map


def _chunked_map(fn, units, workers):
    """Order-preserving map over independent units, optionally in processes.

    Results are identical for any worker count: units carry everything
    they need, nothing mutable is shared, and the output order is the
    input order. The pool never has more processes than units or than
    CPUs this process may run on.
    """
    units = list(units)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus if workers is None else int(workers), len(units), cpus)
    if workers <= 1:
        return [fn(u) for u in units]
    # serial runs never load the process pool and multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    chunksize = max(1, math.ceil(len(units) / (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, units, chunksize=chunksize))


def _per_seed_map(unit, items, seeds, workers) -> list:
    """unit((item, seed)) for every item and seed in one map; the results
    grouped per item, each group in seed order."""
    k = len(seeds)
    results = _chunked_map(unit, [(item, sd) for item in items for sd in seeds], workers)
    return [results[j : j + k] for j in range(0, len(results), k)]


def _instance_map(unit, config: ExperimentConfig, workers) -> list:
    """unit((config, candidates, i)) for each block-pair instance i, in
    instance order; candidates are the (side, n) blocks under dim_cap."""
    candidates = tuple(_block_candidates(config))
    n = int(config.params["instances"])
    return _chunked_map(unit, [(config, candidates, i) for i in range(n)], workers)


def _probe_unit(args):
    (spec, density, probe), seed = args
    return probe_samples(realization_spectrum(spec, seed, density), *probe)


def _wegner_unit(args):
    spec, base_seed, x, y, marked, zs, s, chunk, density = args
    return wegner_samples(spec, base_seed, x, y, marked, zs, s, chunk, density)


def _monitor_unit(args):
    plan, seed = args
    return monitor_seed_rows(plan, monitor_spectra(plan, seed))


def _draw_block(rng, config: ExperimentConfig, candidates):
    side, n = candidates[int(rng.integers(len(candidates)))]
    spec = config.operator_spec(side, n)
    seed = int(rng.integers(2**31))
    density = config.density_spec()
    H = assemble(spec, sample(spec.box, density, seed))
    return seed, H, gershgorin_interval(spec, density)


def _draw_pair(config: ExperimentConfig, candidates, salt: int, i: int):
    """Instance i of a block-pair kind: the generator (for further draws),
    both blocks as (seed, H, enclosure), and the end configurations
    x = (x_left, x_right), y = (y_left, y_right)."""
    rng = Stream([int(config.ensemble["base_seed"]), salt, i])
    left = _draw_block(rng, config, candidates)
    right = _draw_block(rng, config, candidates)
    ix_j, ix_k = left[1].index, right[1].index
    xj = ix_j.config_at(int(rng.integers(ix_j.size)))
    yj = ix_j.config_at(int(rng.integers(ix_j.size)))
    xk = ix_k.config_at(int(rng.integers(ix_k.size)))
    yk = ix_k.config_at(int(rng.integers(ix_k.size)))
    return rng, left, right, (xj, xk), (yj, yk)


def _composite_unit(args):
    config, candidates, i = args
    rng, (seed_j, H_j, (lo_j, hi_j)), (seed_k, H_k, (lo_k, hi_k)), x, y = _draw_pair(
        config, candidates, 0xC0, i
    )
    re = float(rng.uniform(lo_j + lo_k, hi_j + hi_k))
    # imaginary part strictly above any admissible contour radius
    im = max(1.25 * (hi_k - lo_k) / 2.0, 1.0) + 0.75
    z = complex(re, im)
    quad = int(config.params["quadrature_points"])
    chk, chk2 = composite_green_check(H_j, H_k, x, y, z, (quad, 2 * quad))
    return (
        i,
        seed_j,
        seed_k,
        H_j.index.size,
        H_k.index.size,
        z.real,
        z.imag,
        float(chk.gap),
        float(chk2.gap),
        f"{seed_j},{seed_k}",
    )


def _subadditivity_unit(args):
    config, candidates, i = args
    rng, (seed_j, H_j, (lo_j, hi_j)), (seed_k, H_k, (lo_k, hi_k)), x, y = _draw_pair(
        config, candidates, 0x5B, i
    )
    lo, hi = lo_j + lo_k, hi_j + hi_k
    a = float(rng.uniform(lo, hi))
    width = float(rng.uniform(0.1, max(hi - lo, 0.2)))
    S_j, S_k = spectral_data(H_j), spectral_data(H_k)
    S_jk = composite_spectral_data(H_j, H_k)
    res = subadditivity_check(S_j, S_k, S_jk, x, y, EnergyInterval(a, a + width))
    return (
        i,
        seed_j,
        seed_k,
        float(res.lhs),
        float(res.rhs),
        float(res.q_left),
        float(res.q_right),
        bool(res.satisfied),
        f"{seed_j},{seed_k}",
    )


# ------------------------------------------------------------------- runners


def _fit_dict(points) -> dict:
    """The decay fit of (dist, value) points as a dict; None if it fails."""
    try:
        fit = decay_fit(points)
    except ValueError:
        return None
    d = dataclasses.asdict(fit)
    d["pairs"] = [list(p) for p in fit.pairs]
    return d


def _numerics(config: ExperimentConfig, eta_default, qp_default):
    """(s, eta, quad_points), with a kind's defaults for null entries."""
    num = config.numerics
    eta = eta_default if num["eta"] is None else float(num["eta"])
    qp = qp_default if num["quad_points"] is None else int(num["quad_points"])
    return float(num["s"]), eta, qp


def _probe_rows(spec, pairs, results, seeds):
    """(dist, q, moment) per pair: the Estimates of the per-seed samples."""
    moments, qvals = (np.stack(col).T for col in zip(*results))
    return [
        (
            hausdorff_dist(px, py, spec.norm),
            Estimate.from_samples(q, seeds),
            Estimate.from_samples(m, seeds),
        )
        for (px, py), q, m in zip(pairs, qvals, moments)
    ]


def _run_probe(config: ExperimentConfig, workers):
    spec = config.operator_spec()
    density = config.density_spec()
    s, eta, qp = _numerics(config, DEFAULT_ETA, DEFAULT_QUAD_POINTS)
    pairs = _resolve_pairs(config, spec)
    iv = config.params["interval"]
    interval = (
        default_probe_interval(spec, density)
        if iv is None
        else EnergyInterval(float(iv[0]), float(iv[1]))
    )
    item = (spec, density, (tuple(pairs), interval, s, eta, qp))
    seeds = config.seeds()
    (results,) = _per_seed_map(_probe_unit, [item], seeds, workers)
    rows = [
        (int(dist), q.mean, q.stderr, moment.mean, moment.stderr, q.seeds)
        for dist, q, moment in _probe_rows(spec, pairs, results, seeds)
    ]
    return rows, {
        "interval": [interval.lo, interval.hi],
        "s": s,
        "eta": eta,
        "quad_points": qp,
        "pairs": [
            [[list(site) for site in px.sites], [list(site) for site in py.sites]]
            for px, py in pairs
        ],
        "fit_q": _fit_dict([(r[0], r[1]) for r in rows]),
        "fit_moment": _fit_dict([(r[0], r[3]) for r in rows]),
    }


def _run_wegner(config: ExperimentConfig, workers):
    spec = config.operator_spec()
    density = config.density_spec()
    base_seed = int(config.ensemble["base_seed"])
    count = int(config.ensemble["count"])
    s = float(config.numerics["s"])
    x, y, u1, u2 = _wegner_marks(config, spec)
    marked = (u1,) if u1 == u2 else (u1, u2)
    zarr = np.asarray(_wegner_grid(config, spec))
    chunk = 32
    chunks = [
        tuple(range(k, min(k + chunk, count))) for k in range(0, count, chunk)
    ]
    units = [
        (spec, base_seed, x, y, marked, zarr, s, ch, density) for ch in chunks
    ]
    values = np.vstack(_chunked_map(_wegner_unit, units, workers))
    # column k: the conditional samples of |G(x, y; z_k)|^s, in subseed order
    estimates = [Estimate.from_samples(col, range(count)) for col in values.T]
    worst = max(estimates, key=lambda e: e.mean)
    rows = [
        (z.real, z.imag, est.mean, est.stderr, est.count, est.seeds)
        for z, est in zip(zarr.tolist(), estimates)
    ]
    return rows, {
        # the empirical constant that the single-site bound predicts to be
        # O(1) uniformly in z and lambda
        "c_emp": float(abs(spec.lam) ** s * worst.mean),
        "worst_mean": worst.mean,
        "worst_stderr": worst.stderr,
        "marked": [list(u) for u in marked],
        "x": [list(site) for site in x.sites],
        "y": [list(site) for site in y.sites],
        "s": s,
        "lambda": spec.lam,
        "base_seed": base_seed,
        "subsamples": count,
    }


def _monitor_runs(config: ExperimentConfig, sides, workers):
    """Monitor plans at each box side and their reduced results, from one
    per-seed map over the plans."""
    seeds = config.seeds()
    plans = _monitor_plans(config, sides)
    groups = _per_seed_map(_monitor_unit, plans, seeds, workers)
    return plans, [monitor_reduce(p, seeds, g) for p, g in zip(plans, groups)]


def _monitor_plans(config: ExperimentConfig, sides) -> list:
    """The monitor plan at each box side."""
    # eta None: monitor_plan matches it to the quadrature resolution
    s, eta, qp = _numerics(config, None, B_MONITOR_QUAD_POINTS)
    omega, density = int(config.params["omega_samples"]), config.density_spec()
    seeds = config.seeds()
    return [
        monitor_plan(config.operator_spec(side), seeds, s, omega, eta, qp, density)
        for side in sides
    ]


def _run_b_monitor(config: ExperimentConfig, workers):
    (plan,), (res,) = _monitor_runs(config, [int(config.model["L"])], workers)
    rows = [
        (lo, lo + 1.0, mean, stderr, res.full.count, res.full.seeds)
        for lo, mean, stderr in res.tiles
    ]
    return rows, {
        "value": res.value,
        "full_mean": res.full.mean,
        "full_stderr": res.full.stderr,
        "full_interval": [res.full_interval.lo, res.full_interval.hi],
        "subbox_values": list(res.subbox_values),
        "pair_count": res.pair_count,
        "boundary_count": res.boundary_count,
        "note": res.note,
        "s": plan.s,
        "eta": plan.eta,
        "quad_points": plan.quad_points,
    }


def _run_rescaling(config: ExperimentConfig, workers):
    L = int(config.model["L"])
    s = float(config.numerics["s"])
    p = config.params
    constants = {k: float(p[k]) for k in ("a", "A", "nu", "p")}
    _, (res_small, res_large) = _monitor_runs(config, [L, 2 * L], workers)
    report = rescaling_check(
        res_small.value,
        res_large.value,
        lam=float(config.model["lambda"]),
        s=s,
        L=L // 2,
        **constants,
    )
    rows = [
        (scale, side, r.value, r.full.mean, r.full.stderr, r.full.count, r.full.seeds)
        for scale, side, r in (("small", L, res_small), ("large", 2 * L, res_large))
    ]
    return rows, {
        "report": dataclasses.asdict(report),
        "constants": constants,
        "lambda": float(config.model["lambda"]),
        "s": s,
        "length_parameter": L // 2,
    }


def _scan_seed(small, large, probe, seed):
    """A scan point's monitor rows and probe samples at one seed."""
    rows_small = monitor_seed_rows(small, monitor_spectra(small, seed))
    spectra = monitor_spectra(large, seed)
    S = next(spectra)
    samples = probe_samples(S, *probe)
    return rows_small, monitor_seed_rows(large, itertools.chain([S], spectra)), samples


def _scan_unit(args):
    """One (lambda, alpha) point: the monitors at sides L and 2L and the
    correlator decay fit on side 2L, in one serial sweep, and the verdict."""
    config, lam, alpha = args
    model, p = config.model, config.params
    inter = {
        "builtin": "pair_nn" if alpha else "none",
        "coupling": alpha,
        "range": model["interaction"]["range"],
    }
    point = dataclasses.replace(
        config, model={**model, "lambda": lam, "interaction": inter}
    )
    L = int(model["L"])
    # the monitors tile at params.monitor_eta, not at numerics.eta
    monitors = dataclasses.replace(
        point, numerics={**config.numerics, "eta": p["monitor_eta"]}
    )
    small, large = _monitor_plans(monitors, [L, 2 * L])
    # the probe always integrates on DEFAULT_QUAD_POINTS nodes
    s, eta, _ = _numerics(point, DEFAULT_ETA, None)
    spec = point.operator_spec(side=2 * L)
    interval = default_probe_interval(spec, point.density_spec())
    pairs = tuple(probe_pairs(spec))
    probe = (pairs, interval, s, eta, DEFAULT_QUAD_POINTS)
    seeds = point.seeds()
    per_seed = [_scan_seed(small, large, probe, seed) for seed in seeds]
    rows_small, rows_large, results = zip(*per_seed)
    b_small = monitor_reduce(small, seeds, rows_small)
    b_large = monitor_reduce(large, seeds, rows_large)
    rows = _probe_rows(spec, pairs, results, seeds)
    fit = decay_fit([(dist, q.mean) for dist, q, _ in rows])
    gap, noise, verdict = scan_verdict(
        b_small, b_large, fit, float(p["r2_threshold"]), _xi_max(config)
    )
    return (
        lam, alpha, b_small.value, b_small.full.stderr, b_large.value,
        b_large.full.stderr, gap, noise, fit.xi, fit.r2, verdict, b_small.full.seeds,
    )


def _xi_max(config: ExperimentConfig) -> float:
    """params.xi_max, by default half the monitor box side model.L."""
    xi_max = config.params["xi_max"]
    return float(int(config.model["L"]) // 2 if xi_max is None else xi_max)


def _run_region_scan(config: ExperimentConfig, workers):
    p = config.params
    units = [
        (config, float(lam), float(alpha))
        for lam in p["lambdas"] or [config.model["lambda"]]
        for alpha in p["alphas"]
    ]
    L = int(config.model["L"])
    return _chunked_map(_scan_unit, units, workers), {
        "sides": [L, 2 * L],
        "count": int(config.ensemble["count"]),
        "base_seed": int(config.ensemble["base_seed"]),
        "s": float(config.numerics["s"]),
        "r2_threshold": float(p["r2_threshold"]),
        "xi_max": _xi_max(config),
    }


def _run_composite(config: ExperimentConfig, workers):
    rows = _instance_map(_composite_unit, config, workers)
    return rows, {
        "quadrature_points": int(config.params["quadrature_points"]),
        "dim_cap": int(config.params["dim_cap"]),
        "max_gap": max((r[7] for r in rows), default=0.0),
    }


def _run_subadditivity(config: ExperimentConfig, workers):
    rows = _instance_map(_subadditivity_unit, config, workers)
    return rows, {
        "dim_cap": int(config.params["dim_cap"]),
        "violations": sum(1 for r in rows if not r[7]),
    }


# ---------------------------------------------------------------- kind table


def _quad_nodes(config: ExperimentConfig) -> tuple:
    # the monitor kinds hold quad_points nodes in each tile
    return "numerics.quad_points", config.numerics["quad_points"]


def _z_nodes(config: ExperimentConfig) -> tuple:
    p = config.params  # an explicit z_grid leaves z_count unread
    return "params.z_count", p["z_count"] if p["z_grid"] is None else None


def _contour_nodes(config: ExperimentConfig) -> tuple:
    return "params.quadrature_points", config.params["quadrature_points"]


@dataclass(frozen=True)
class _Kind:
    """Everything validate and run know about one experiment kind."""

    params: dict  # field -> (default, rule), as in _SECTIONS; the allowed fields
    min_count: int  # least ensemble.count
    budget_sides: tuple  # box sides under the dense cap, as multiples of L
    # nodes(config) -> (field, value): the node count (or a lower bound of
    # it) that a run holds against the dimension; None for no node grid
    nodes: Callable
    columns: tuple  # (name, dtype) per result column, dtypes as in ResultTable
    check: Callable  # check(config, spec, out) appends the rules that need the model
    runner: Callable  # runner(config, workers) -> (rows in column order, metadata)


# validate lists the kinds in this order
_KINDS = {
    "decay_probe": _Kind(
        params={"max_points": (6, _at_least(3)), "pairs": (None, None),
                "interval": (None, None)},
        min_count=2, budget_sides=(1,), nodes=_quad_nodes,
        columns=(("dist_H", "int"), ("EQ_mean", "float"), ("EQ_stderr", "float"),
                 ("moment_mean", "float"), ("moment_stderr", "float"),
                 ("seeds", "str")),
        check=_check_probe, runner=_run_probe,
    ),
    "wegner": _Kind(
        params={"x": (None, None), "y": (None, None), "u1": (None, None),
                "u2": (None, None), "z_grid": (None, None), "z_count": (8, None),
                "z_im": (0.0, None)},
        min_count=2, budget_sides=(1,), nodes=_z_nodes,
        columns=(("z_re", "float"), ("z_im", "float"), ("mean", "float"),
                 ("stderr", "float"), ("count", "int"), ("seeds", "str")),
        check=_check_wegner, runner=_run_wegner,
    ),
    "b_monitor": _Kind(
        params={"omega_samples": (0, _NONNEGATIVE_INT)},
        min_count=2, budget_sides=(1,), nodes=_quad_nodes,
        columns=(("tile_lo", "float"), ("tile_hi", "float"), ("mean", "float"),
                 ("stderr", "float"), ("count", "int"), ("seeds", "str")),
        check=_check_monitor_box, runner=_run_b_monitor,
    ),
    "rescaling": _Kind(
        params={"omega_samples": (0, _NONNEGATIVE_INT), "a": (1.0, _NONNEGATIVE),
                "A": (0.0, _NONNEGATIVE), "nu": (0.0, _NONNEGATIVE),
                "p": (0.0, _NONNEGATIVE)},
        min_count=2, budget_sides=(2,), nodes=_quad_nodes,
        columns=(("scale", "str"), ("side", "int"), ("value", "float"),
                 ("full_mean", "float"), ("full_stderr", "float"), ("count", "int"),
                 ("seeds", "str")),
        check=_check_rescaling, runner=_run_rescaling,
    ),
    "region_scan": _Kind(
        params={
            "omega_samples": (0, _NONNEGATIVE_INT),
            "lambdas": (None, _rule(  # null means [model.lambda]
                "be a nonempty list of numbers >= 0",
                lambda v: v is None or _is_list_of(v, lambda x: _is_num(x) and x >= 0),
            )),
            "alphas": ([0.0], _rule(
                "be a nonempty list of numbers", lambda v: _is_list_of(v, _is_num)
            )),
            "r2_threshold": (0.9, _rule(
                "lie in (0, 1]", lambda v: _is_num(v) and 0 < v <= 1
            )),
            "xi_max": (None, _NULL_OR_POSITIVE),
            "monitor_eta": (None, _NULL_OR_POSITIVE),
        },
        min_count=2, budget_sides=(2,), nodes=_quad_nodes,
        columns=(("lambda", "float"), ("alpha", "float"), ("b_small", "float"),
                 ("b_small_stderr", "float"), ("b_large", "float"),
                 ("b_large_stderr", "float"), ("gap", "float"), ("noise", "float"),
                 ("xi", "float"), ("r2", "float"), ("verdict", "str"), ("seeds", "str")),
        check=_check_region_scan, runner=_run_region_scan,
    ),
    "composite_check": _Kind(
        params={"instances": (20, _POSITIVE_INT), "dim_cap": (10, _POSITIVE_INT),
                "quadrature_points": (512, None)},
        min_count=1, budget_sides=(), nodes=_contour_nodes,
        columns=(("instance", "int"), ("seed_left", "int"), ("seed_right", "int"),
                 ("dim_left", "int"), ("dim_right", "int"), ("z_re", "float"),
                 ("z_im", "float"), ("gap", "float"), ("gap_2x", "float"),
                 ("seeds", "str")),
        check=_check_composite, runner=_run_composite,
    ),
    "subadditivity": _Kind(
        params={"instances": (500, _POSITIVE_INT), "dim_cap": (12, _POSITIVE_INT)},
        min_count=1, budget_sides=(), nodes=None,
        columns=(("instance", "int"), ("seed_left", "int"), ("seed_right", "int"),
                 ("lhs", "float"), ("rhs", "float"), ("q_left", "float"),
                 ("q_right", "float"), ("satisfied", "bool"), ("seeds", "str")),
        check=_check_blocks, runner=_run_subadditivity,
    ),
}
KINDS = tuple(_KINDS)
# run looks a runner up here at call time, so an entry can be rebound
_RUNNERS = {kind: k.runner for kind, k in _KINDS.items()}


def _config_sha256(config: ExperimentConfig) -> str:
    text = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _code_version() -> str:
    from . import __version__

    return __version__


def run(config, workers=None) -> ResultTable:
    """Validate, execute, and persist one experiment.

    Raises ConfigError when validation fails (BudgetError when the only
    failures are budget overruns), and ValueError for a worker count below
    1 (None means one per available core). Writes the output files before
    returning; the table's metadata records the config, its hash, the
    package version, the wall time, and under "warnings" the
    config_warnings, when there are any.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    violations = validate(config)
    budget = [v for v in violations if v.startswith("budget:")]
    if len(budget) < len(violations):
        raise ConfigError(violations)
    if budget:
        raise BudgetError("; ".join(budget))
    start = time.monotonic()
    rows, metadata = _RUNNERS[config.kind](config, workers)
    warnings = config_warnings(config)
    if warnings:
        metadata = {**metadata, "warnings": warnings}
    columns, dtypes = zip(*_KINDS[config.kind].columns)
    table = ResultTable(
        columns=columns,
        dtypes=dtypes,
        rows=tuple(rows),
        metadata={
            "kind": config.kind,
            "config": config.to_dict(),
            "config_sha256": _config_sha256(config),
            "version": _code_version(),
            "wall_time_s": time.monotonic() - start,
            **metadata,
        },
    )
    emit(
        table,
        config.output["directory"],
        config.kind,
        tuple(config.output["formats"]),
    )
    return table

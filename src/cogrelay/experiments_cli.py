"""Experiment runner and command-line front end.

Config files are flat ``key = value`` text; gain fields accept a
``_db`` suffix and are converted to linear scale on parse.  Sweeps
write CSV with a metadata comment line, 9 significant digits and
newline endings, so identical specs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Optional, Tuple

from . import __version__
from .link_model import SystemConfig, config_field_errors
from .mc_sim import compare, simulate
from .policy_opt import _GRID_POINTS, cpt_policy, optimal_policy, st_policy
from .queue_analytics import (AccessPolicy, evaluate_policy,
                              min_departure_rate)

__all__ = ["ExperimentSpec", "validate_config", "load_spec",
           "run_sweep", "run_single", "main"]

_INT_FIELDS = {"pu_queue_capacity", "relay_queue_capacity"}
_CONFIG_FIELDS = {f.name for f in dataclass_fields(SystemConfig)}
_GAIN_FIELDS = {"gain_pd", "gain_ps", "gain_sd", "gain_sr"}
# each method's search, in the order a sweep reports them
_SEARCHES = {"lp": optimal_policy, "cpt": cpt_policy, "st": st_policy}
_METHOD_ORDER = tuple(_SEARCHES)
# the config field each sweep variable sets; r_ps moves two more
# distances with it (see apply_sweep_value)
_SWEEP_FIELDS = {"lambda_p": "pu_arrival_rate", "n_p": "pu_queue_capacity",
                 "n_s": "relay_queue_capacity", "r_ps": "distance_ps",
                 "beta": "beta", "alpha": "alpha", "sigma_pd": "gain_pd"}
_SWEEP_VARIABLES = tuple(_SWEEP_FIELDS)


@dataclass(frozen=True)
class ExperimentSpec:
    base: SystemConfig
    sweep_variable: str
    sweep_values: Tuple[float, ...]
    methods: Tuple[str, ...]
    output_path: str
    simulate: bool = False
    n_slots: int = 1_000_000
    seeds: Tuple[int, ...] = (1,)
    warmup_slots: int = 10_000


_SPEC_KEYS = {f.name for f in dataclass_fields(ExperimentSpec)} - {"base"}


def _parse_kv_file(path):
    """Flat key=value lines; returns ({key: raw string}, errors)."""
    raw = {}
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return raw, [f"{path}: {exc}"]
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            errors.append(f"line {lineno}: expected 'key = value', got {text!r}")
            continue
        key, value = (part.strip() for part in text.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    return raw, errors


def _coerce_config_entry(key, value, out, errors):
    """Normalize one raw config entry into constructor kwargs."""
    name = key
    db = False
    if key.endswith("_db") and key[:-3] in _GAIN_FIELDS:
        name, db = key[:-3], True
    if name not in _CONFIG_FIELDS:
        errors.append(f"{key}: unknown field")
        return
    if name in _INT_FIELDS:
        try:
            out[name] = int(value)
        except ValueError:
            errors.append(f"{key}: expected an integer, got {value!r}")
        return
    try:
        v = float(value)
    except ValueError:
        errors.append(f"{key}: expected a number, got {value!r}")
        return
    out[name] = 10.0 ** (v / 10.0) if db else v


def _build_config(raw, errors):
    kwargs = {}
    for key, value in raw.items():
        _coerce_config_entry(key, value, kwargs, errors)
    if errors:
        return None
    merged = {f.name: f.default for f in dataclass_fields(SystemConfig)}
    merged.update(kwargs)
    field_errors = config_field_errors(merged)
    if field_errors:
        errors.extend(field_errors)  # all violations, not just the first
        return None
    return SystemConfig(**kwargs)


def validate_config(path, overrides=None):
    """Parse and validate a config file.

    Returns (SystemConfig, []) on success or (None, errors) where each
    error names the offending field or line.  ``overrides`` is an
    optional {key: raw string} mapping applied on top of the file.
    """
    raw, errors = _parse_kv_file(path)
    # sweep-spec keys are harmless in a config file
    raw = {k: v for k, v in raw.items() if k not in _SPEC_KEYS}
    if overrides:
        raw.update(overrides)
    cfg = _build_config(raw, errors)
    return (cfg, errors) if not errors else (None, errors)


def _parse_list(value, conv, key, errors):
    items = [x for x in value.replace(",", " ").split() if x]
    out = []
    for item in items:
        try:
            out.append(conv(item))
        except ValueError:
            errors.append(f"{key}: bad entry {item!r}")
    return tuple(out)


def _run_setting_errors(n_slots, warmup_slots, seeds, names=None):
    """One message per run setting out of range, checked before any run.

    Sweep specs and the command line share these rules; ``names`` maps
    a setting to the command-line flag it came from.
    """
    names = names or {}
    errors = []
    for key, value, least in (("n_slots", n_slots, 1),
                              ("warmup_slots", warmup_slots, 0)):
        if value < least:
            errors.append(f"{names.get(key, key)}: must be >= {least}, "
                          f"got {value}")
    if not seeds:
        errors.append("seeds: empty")
    for seed in seeds:
        if seed < 0:
            errors.append(f"seed: must be a non-negative integer, got {seed}")
    return errors


def load_spec(path, overrides=None):
    """Parse a sweep spec file: base config keys plus sweep keys."""
    raw, errors = _parse_kv_file(path)
    if overrides:
        raw.update(overrides)
    spec_raw = {k: raw.pop(k) for k in list(raw) if k in _SPEC_KEYS}
    base = _build_config(raw, errors)

    variable = spec_raw.get("sweep_variable")
    if variable is None:
        errors.append("sweep_variable: missing")
    elif variable not in _SWEEP_VARIABLES:
        errors.append(f"sweep_variable: unknown variable {variable!r}, "
                      f"expected one of {', '.join(_SWEEP_VARIABLES)}")
    values = ()
    if "sweep_values" not in spec_raw:
        errors.append("sweep_values: missing")
    else:
        values = _parse_list(spec_raw["sweep_values"], float, "sweep_values",
                             errors)
        if not values:
            errors.append("sweep_values: empty")
    methods = _parse_list(spec_raw.get("methods", "lp"), str, "methods", errors)
    for m in methods:
        if m not in _SEARCHES:
            errors.append(f"methods: unknown method {m!r}")
    if not methods:
        errors.append("methods: empty")
    if "output_path" not in spec_raw:
        errors.append("output_path: missing")

    def intkey(key):
        try:
            return int(spec_raw.get(key, getattr(ExperimentSpec, key)))
        except ValueError:
            errors.append(f"{key}: expected an integer, got {spec_raw[key]!r}")
            return getattr(ExperimentSpec, key)

    simulate_flag = spec_raw.get("simulate", "false").strip().lower()
    if simulate_flag not in ("true", "false", "0", "1", "yes", "no"):
        errors.append(f"simulate: expected a boolean, got {simulate_flag!r}")
    n_slots = intkey("n_slots")
    warmup = intkey("warmup_slots")
    seeds = (_parse_list(spec_raw["seeds"], int, "seeds", errors)
             if "seeds" in spec_raw else ExperimentSpec.seeds)
    errors.extend(_run_setting_errors(n_slots=n_slots, warmup_slots=warmup,
                                      seeds=seeds))

    # the config each value makes checks the value's domain
    if base is not None and variable in _SWEEP_VARIABLES:
        for v in values:
            try:
                apply_sweep_value(base, variable, v)
            except ValueError as exc:
                errors.append(f"sweep_values: {v:g} out of domain "
                              f"for {variable} ({exc})")
                break
    if errors:
        return None, errors
    return ExperimentSpec(
        base=base,
        sweep_variable=variable,
        sweep_values=tuple(sorted(values)),
        methods=tuple(m for m in _METHOD_ORDER if m in methods),
        output_path=spec_raw["output_path"],
        simulate=simulate_flag in ("true", "1", "yes"),
        n_slots=n_slots,
        seeds=seeds,
        warmup_slots=warmup,
    ), []


def apply_sweep_value(base: SystemConfig, variable: str,
                      value: float) -> SystemConfig:
    """One sweep point as a full config.

    ``r_ps`` moves the secondary along the line between the primary
    and the destination: the destination and the secondary's own
    receiver sit together at the far end, so their distances shrink
    as the primary-to-secondary distance grows.  Raises ValueError for
    an unknown variable or a value the config refuses, a non-integral
    buffer size included.
    """
    if variable not in _SWEEP_FIELDS:
        raise ValueError(f"sweep_variable: unknown variable {variable!r}")
    field = _SWEEP_FIELDS[variable]
    if field in _INT_FIELDS and float(value).is_integer():
        value = int(value)
    changes = {field: value}
    if variable == "r_ps":
        changes["distance_sd"] = changes["distance_sr"] = (
            base.distance_pd - value)
    return replace(base, **changes)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _spec_hash(spec: ExperimentSpec) -> str:
    base_items = sorted(
        (f.name, getattr(spec.base, f.name))
        for f in dataclass_fields(SystemConfig))
    payload = repr((base_items, spec.sweep_variable, spec.sweep_values,
                    spec.methods, spec.simulate, spec.n_slots, spec.seeds,
                    _GRID_POINTS, spec.warmup_slots))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def sweep_records(spec: ExperimentSpec):
    """All sweep rows as dicts keyed by CSV column, in output order."""
    records = []
    for value in spec.sweep_values:
        cfg = apply_sweep_value(spec.base, spec.sweep_variable, value)
        floor = min_departure_rate(cfg.pu_arrival_rate,
                                   cfg.pu_queue_capacity,
                                   cfg.loss_threshold)
        for method in spec.methods:
            result = _SEARCHES[method](cfg)
            ok = result.status == "ok"  # "ok" implies a feasible evaluation
            row = {
                spec.sweep_variable: value,
                "method": method,
                "mu_s": result.mu_s if ok else 0.0,
                "mu_p": result.evaluation.mu_p if ok else math.nan,
                "mu_p_bar": floor if floor is not None else math.inf,
                "feasible": ok,
            }
            if spec.simulate:
                sim_mu_s = sim_mu_p = math.nan
                if ok:
                    sims = [simulate(cfg, result.policy, spec.n_slots, seed,
                                     warmup_slots=spec.warmup_slots)
                            for seed in spec.seeds]
                    sim_mu_s = sum(s.measured_mu_s for s in sims) / len(sims)
                    sim_mu_p = sum(s.measured_mu_p for s in sims) / len(sims)
                row.update(sim_mu_s=sim_mu_s, sim_mu_p=sim_mu_p,
                           gap_mu_s=abs(sim_mu_s - row["mu_s"]),
                           gap_mu_p=abs(sim_mu_p - row["mu_p"]))
            records.append(row)
    return records


def run_sweep(spec: ExperimentSpec) -> str:
    """Execute the sweep and write its CSV; returns the output path."""
    columns = [spec.sweep_variable, "method", "mu_s", "mu_p", "mu_p_bar",
               "feasible"]
    if spec.simulate:
        columns += ["sim_mu_s", "sim_mu_p", "gap_mu_s", "gap_mu_p"]
    lines = [
        f"# config_hash={_spec_hash(spec)} grid={_GRID_POINTS} "
        f"version={__version__}",
        ",".join(columns),
    ]
    for row in sweep_records(spec):
        lines.append(",".join(_fmt(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return spec.output_path


def _parse_policy_arg(arg, n_s, errors):
    known = len(errors)
    parts = _parse_list(arg, float, "policy", errors)
    if len(errors) > known:
        return None
    if len(parts) == n_s:  # levels 1..N_S given, level 0 implied
        parts = (1.0,) + parts
    if len(parts) != n_s + 1:
        errors.append(f"policy: expected {n_s} or {n_s + 1} entries, "
                      f"got {len(parts)}")
        return None
    try:
        return AccessPolicy(parts)
    except ValueError as exc:
        errors.append(str(exc))
        return None


def run_single(config: SystemConfig, method: Optional[str] = None,
               policy: Optional[AccessPolicy] = None,
               do_simulate: bool = False,
               n_slots: int = ExperimentSpec.n_slots,
               seeds: Tuple[int, ...] = ExperimentSpec.seeds,
               warmup_slots: int = ExperimentSpec.warmup_slots) -> str:
    """The report on one policy, explicit or searched, as text."""
    if (method is None) == (policy is None):
        raise ValueError("method: give exactly one of method or policy")
    lines = []
    if method is not None:
        result = _SEARCHES[method](config)
        lines.append(f"method = {method}")
        if result.status != "ok":
            lines += [f"status = {result.status}", "mu_s = 0"]
            return "\n".join(lines) + "\n"
        policy, ev = result.policy, result.evaluation
        if method == "st":
            threshold = sum(1 for p in policy.probs[1:] if p == 1.0)
            lines.append(f"threshold = {threshold}")
        elif method == "cpt":
            lines.append(f"share_prob = {_fmt(policy.probs[1])}")
        else:
            lines.append(f"swept_mu_p = {_fmt(result.swept_mu_p)}")
            lines.append(f"lp_objective = {_fmt(result.objective)}")
    else:
        lines.append("policy = " + ",".join(_fmt(p) for p in policy.probs))
        ev = evaluate_policy(config, policy)
    floor = min_departure_rate(config.pu_arrival_rate,
                               config.pu_queue_capacity,
                               config.loss_threshold)
    lines.append(f"mu_p = {_fmt(ev.mu_p)}")
    lines.append(f"mu_s = {_fmt(ev.mu_s)}")
    lines.append(f"mu_p_bar = {_fmt(floor if floor is not None else math.inf)}")
    lines.append(f"feasible = {_fmt(ev.feasible)}")
    lines.append("relay_occupancy = "
                 + ",".join(_fmt(x) for x in ev.relay_state.occupancy))
    lines.append(f"pu_busy = {_fmt(ev.pu_busy)}")
    lines.append(f"pu_full = {_fmt(ev.pu_full)}")
    if do_simulate:
        report = compare(config, policy, n_slots, seeds,
                         warmup_slots=warmup_slots)
        for g in report["per_seed"]:
            lines.append(
                f"sim seed={g['seed']}: mu_s={_fmt(g['measured_mu_s'])} "
                f"gap_mu_s={_fmt(g['gap_mu_s'])} "
                f"mu_p={_fmt(g['measured_mu_p'])} "
                f"gap_mu_p={_fmt(g['gap_mu_p'])} "
                f"tv_relay={_fmt(g['tv_relay'])} "
                f"within={_fmt(g['within'])}")
    return "\n".join(lines) + "\n"


def _overrides_from_args(pairs, errors):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            errors.append(f"set: expected key=value, got {pair!r}")
            continue
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _fail(errors) -> int:
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Spectrum-access policy toolkit for a cognitive relay "
                    "with finite buffers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="path to a key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field")

    p_eval = sub.add_parser("evaluate", help="evaluate an explicit policy")
    add_common(p_eval)
    p_eval.add_argument("--policy", default=None,
                        help="comma list of sharing probabilities for levels "
                             "1..N (default: all ones)")

    p_opt = sub.add_parser("optimize", help="search for the best policy")
    add_common(p_opt)
    p_opt.add_argument("--method", required=True, choices=_METHOD_ORDER)

    p_sim = sub.add_parser("simulate", help="simulate a policy and compare")
    add_common(p_sim)
    source = p_sim.add_mutually_exclusive_group()
    source.add_argument("--policy", default=None)
    source.add_argument("--method", default=None, choices=_METHOD_ORDER,
                        help="search for the policy (default: lp)")
    p_sim.add_argument("--slots", type=int, required=True)
    seed = p_sim.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=ExperimentSpec.seeds[0])
    seed.add_argument("--seeds", default=None, help="comma list of seeds")
    p_sim.add_argument("--warmup", type=int,
                       default=ExperimentSpec.warmup_slots)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec to CSV")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")

    args = parser.parse_args(argv)
    errors = []
    overrides = _overrides_from_args(getattr(args, "set", None), errors)
    if errors:
        return _fail(errors)

    if args.command == "sweep":
        spec, errors = load_spec(args.spec, overrides)
        if errors:
            return _fail(errors)
        print(f"wrote {run_sweep(spec)}")
        return 0

    config, errors = validate_config(args.config, overrides)
    if errors:
        return _fail(errors)

    if args.command == "optimize":
        print(run_single(config, method=args.method), end="")
        return 0

    run = {}
    if args.command == "simulate":
        # every number is checked before any search runs
        seeds = (args.seed,)
        if args.seeds is not None:
            seeds = _parse_list(args.seeds, int, "seeds", errors)
        errors.extend(_run_setting_errors(
            n_slots=args.slots, warmup_slots=args.warmup, seeds=seeds,
            names={"n_slots": "slots", "warmup_slots": "warmup"}))
        run = dict(do_simulate=True, n_slots=args.slots, seeds=seeds,
                   warmup_slots=args.warmup)
    n_s = config.relay_queue_capacity
    policy = method = None
    if args.policy is not None:
        policy = _parse_policy_arg(args.policy, n_s, errors)
    elif args.command == "evaluate":
        policy = AccessPolicy((1.0,) * (n_s + 1))
    else:
        method = args.method or "lp"
    if errors:
        return _fail(errors)
    print(run_single(config, method=method, policy=policy, **run), end="")
    return 0

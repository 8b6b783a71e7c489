"""Config-driven experiment runner: train, evaluate, sample, transport tasks.

Configs are flat INI files ([section] headers, key = value); every field
that affects a result is echoed into report.json, and replaying the echoed
config reproduces the run. Timing ends up in separate files (run_meta.json,
timing.csv) so the metric artifacts stay byte-identical across reruns.

CONFIG_TABLE holds every key: its raw default and the parser that checks it.
parse_config checks every key of a config, whichever task runs, and returns
the raw strings for the echo and the typed values the tasks read. Checks that
tie keys together (lengths against dim, metric sample sizes, the DRE grid)
run in the tasks before any training.

Exit codes: 0 success, 2 config error (a run too large for memory counts as
one), 3 numeric failure. An exit 2 or 3 removes every artifact of the run and
the output directory it made.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from wflow import chain as flowchain
from wflow import datasets as ds
from wflow import metrics
from wflow import numcore as nc
from wflow import objectives as obj
from wflow import odeint
from wflow import svgplot
from wflow import transport as tp

TASKS = ("train-cnf", "train-jko", "train-fm", "train-lfm", "ot", "dre", "dro",
         "eval", "sample")

METRIC_NAMES = ("nll", "kl_moment", "gauss_fid", "mmd", "w2", "kl_mc")
SAMPLE_METRICS = ("gauss_fid", "mmd", "w2")  # two-sample, shared by eval and train reports

# mmd streams its kernel sums in row blocks, so memory stays flat; the cap
# bounds its quadratic time in the sample count
MMD_MAX_SAMPLES = 2048
# the DRE support grid keeps a point where p or q has at least this log-density
MIN_LOG_DENSITY = -5.5
# the DRE grid's grid ** dim points, built whole before any is dropped; each
# classifier layer then evaluates a (points, width) array over all it keeps
MAX_GRID_POINTS = 2 ** 16


class ConfigError(Exception):
    pass


def _parser(expects, convert, valid=lambda value: True):
    """A key's parser: raw string -> typed value, or ValueError; `expects`
    names the accepted values in the error message."""
    def parse(raw):
        value = convert(raw)
        if not valid(value):
            raise ValueError(raw)
        return value
    parse.expects = expects
    return parse


def _integer(minimum):
    return _parser(f"an integer of at least {minimum}", int, lambda v: v >= minimum)


def _choice(options):
    return _parser(f"one of {', '.join(options)}", str, lambda v: v in options)


def _optional(parse):
    return _parser(f"empty or {parse.expects}", lambda raw: parse(raw) if raw else None)


_POSITIVE = _parser("a positive finite number", float, lambda v: 0 < v < math.inf)
_FLOATS = _parser("comma-separated finite numbers",
                  lambda raw: tuple(float(v) for v in raw.split(",")) if raw else (),
                  lambda values: all(map(math.isfinite, values)))
_METRICS = _parser(f"comma-separated names from {', '.join(METRIC_NAMES)}",
                   lambda raw: tuple(n.strip() for n in raw.split(",") if n.strip()),
                   lambda names: set(names) <= set(METRIC_NAMES))
_TEXT = _parser("text", str)

# every key the CLI knows: section -> key -> (raw default, parser); every
# default parses, so a key's check applies whichever task runs
CONFIG_TABLE = {
    "experiment": {"task": ("", _optional(_choice(TASKS))), "seed": ("0", _integer(0)),
                   "out": ("", _TEXT)},
    "dataset": {"source": ("standard-gaussian", _choice(ds.PRESETS)),
                "target": ("standard-gaussian", _choice(ds.PRESETS)),
                "dim": ("2", _integer(1)), "count": ("4096", _integer(1)),
                "holdout": ("2048", _integer(1)), "shift": ("", _FLOATS)},
    "model": {"blocks": ("1", _integer(1)), "width": ("64", _integer(1)),
              "depth": ("2", _integer(1)), "steps_per_block": ("32", _integer(1)),
              "scheme": ("rk4", _choice(odeint.SCHEMES)),
              "t_total": ("", _optional(_POSITIVE)), "checkpoint": ("", _TEXT)},
    "train": {"learn_rate": ("0.01", _POSITIVE), "batch_size": ("192", _integer(1)),
              "iterations": ("400", _integer(1)), "gamma": ("1.0", _POSITIVE),
              "optimizer": ("adam", _choice(("adam", "sgd"))),
              "time_draws": ("1", _integer(1))},
    "metrics": {"names": ("", _METRICS)},
    "ot": {"penalty": ("30.0", _POSITIVE)},
    "dre": {"bridges": ("4", _integer(1)), "bridge_kind": ("ou", _choice(("ou", "flow"))),
            "grid": ("24", _integer(1)), "classifier_iterations": ("1200", _integer(1))},
    "dro": {"risk": ("linear", _choice(("linear",))), "risk_c": ("1.0,0.0", _FLOATS),
            "gamma": ("1.0", _POSITIVE)},
}


def _value(section, key, raw):
    parse = CONFIG_TABLE[section][key][1]
    try:
        return parse(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} must be {parse.expects}, got {raw!r}") from err


def parse_config(path):
    """Strictly validated flat config; unknown sections/keys and bad values are
    errors. Returns (raw, typed): the raw strings, defaults filled in, for the
    echo, and every key parsed by its CONFIG_TABLE entry."""
    # no interpolation: a value is its own text, and the echo writes it back as is
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    raw = {section: {key: default for key, (default, _) in keys.items()}
           for section, keys in CONFIG_TABLE.items()}
    for section in parser.sections():
        if section not in CONFIG_TABLE:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in CONFIG_TABLE[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            raw[section][key] = value
    typed = {section: {key: _value(section, key, value) for key, value in values.items()}
             for section, values in raw.items()}
    return raw, typed


class ArtifactWriter:
    """Tracks files written by one run so failures can clean up after themselves.

    An output path under a file is a config error, raised before the task
    runs. The output directory is made on the first write, and rollback
    removes the directories this writer made, never one that existed before."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []
        self.made = []  # deepest first
        head = os.path.abspath(out_dir)
        while not os.path.lexists(head):
            self.made.append(head)
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            raise ConfigError(f"output path {out_dir!r}: {head} exists and is not a directory")

    def path(self, name):
        if not self.written:
            os.makedirs(self.out_dir, exist_ok=True)
        p = os.path.join(self.out_dir, name)
        self.written.append(p)
        return p

    def json(self, name, payload):
        # strict JSON: a NaN or an infinity is a numeric failure, not a value
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as err:
            raise nc.NumericError(f"{name}: {err}") from err
        with open(self.path(name), "w", encoding="ascii") as fh:
            fh.write(text + "\n")

    def rollback(self):
        for p in self.written:
            if os.path.exists(p):
                os.unlink(p)
        for d in self.made:
            try:
                os.rmdir(d)
            except OSError:  # holds files this run did not write
                break


def _write_loss_csv(writer, result_losses, wall_ms):
    # deterministic trace and a timing side-channel with the same rows
    with open(writer.path("loss.csv"), "w", encoding="ascii") as fh:
        fh.write("iteration,loss\n")
        for i, value in enumerate(result_losses):
            fh.write(f"{i},{float(value)!r}\n")
    with open(writer.path("timing.csv"), "w", encoding="ascii") as fh:
        fh.write("iteration,loss,wall_ms\n")
        for i, (value, wall) in enumerate(zip(result_losses, wall_ms)):
            fh.write(f"{i},{float(value)!r},{wall:.3f}\n")


def _preset(data, role):
    """The [dataset] source or target density.

    Only standard-gaussian takes ``dim`` and (as the source) ``shift``; the
    other presets are 2-D, so either key set for them is a config error.
    """
    name, d = data[role], data["dim"]
    shift = data["shift"] if role == "source" else ()
    if name != "standard-gaussian":
        if shift:
            raise ConfigError(f"[dataset] shift needs a standard-gaussian source, not {name}")
        if d != 2:
            raise ConfigError(f"[dataset] dim = {d}, but the {role} {name} is 2-D")
    return ds.preset_density(name, d, shift)


def _dataset_pools(cfg, seed):
    data = cfg["dataset"]
    d, count, holdout, shift = data["dim"], data["count"], data["holdout"], data["shift"]
    if shift and len(shift) != d:
        raise ConfigError(f"[dataset] shift needs {d} components, got {len(shift)}")
    source, target = _preset(data, "source"), _preset(data, "target")
    train = ds.ParticleEnsemble(source.sample(count, np.random.default_rng([seed, 101])))
    hold = ds.ParticleEnsemble(source.sample(holdout, np.random.default_rng([seed, 202])))
    return source, target, train, hold


def _train_config(cfg, seed) -> obj.TrainConfig:
    return obj.TrainConfig(seed=seed, **cfg["train"])


def _build_chain(cfg, d, base, seed):
    model = cfg["model"]
    return flowchain.identity_chain(d, model["blocks"], base=base,
                                    widths=(model["width"],) * model["depth"],
                                    steps=model["steps_per_block"], scheme=model["scheme"],
                                    t_total=model["t_total"] or float(model["blocks"]),
                                    seed=seed)


def _load_checkpoint(cfg):
    path = cfg["model"]["checkpoint"]
    try:
        return flowchain.load_checkpoint(path)
    except OSError as err:
        raise ConfigError(f"[model] checkpoint cannot be read: {err}") from err


def _min_points(name, d):
    """Fewest points per sample a metric needs: a covariance d+1, a U-statistic
    or a standard error 2."""
    if name in ("gauss_fid", "kl_moment"):
        return d + 1
    return 2 if name in ("mmd", "kl_mc") else 1


def _metric_list(cfg, task, key, size, d):
    """Requested metric names, each checked against the [dataset] key giving
    the size of every sample it sees, and against the task."""
    names = cfg["metrics"]["names"]
    for n in names:
        if n == "kl_mc" and task != "eval":
            raise ConfigError("metric kl_mc applies to the eval task only")
        if task == "eval" and n not in SAMPLE_METRICS + ("kl_mc",):
            raise ConfigError(f"metric {n!r} needs a trained chain; use a train task")
        if size < _min_points(n, d):
            raise ConfigError(f"[dataset] {key} = {size} is too small for metric {n}, "
                              f"which needs at least {_min_points(n, d)} points")
    return names


def _sample_metric(name, a, b):
    """Two-sample metric between ensembles; mmd and w2 see capped prefixes."""
    if name == "gauss_fid":
        return metrics.gauss_fid(a, b)
    if name == "mmd":
        k = min(MMD_MAX_SAMPLES, a.m, b.m)
        return metrics.mmd_rbf(a.positions[:k], b.positions[:k]).value
    k = min(metrics.W2_MAX_PARTICLES, a.m, b.m)
    return metrics.w2_exact(a.positions[:k], b.positions[:k])


def _chain_metrics(names, chn, target, holdout, seed):
    reports = []
    rng = np.random.default_rng([seed, 303])
    generated = flowchain.sample(chn, holdout.m, rng)
    sizes = {"holdout": holdout.m, "generated": generated.m}
    pushed = None
    if "nll" in names:
        # the exact trace at every d; the pass ends at forward_map's end
        # state, which kl_moment reuses
        logp, end = flowchain.push_log_density(chn, holdout.positions)
        nll, pushed = float(-np.mean(logp)), ds.ParticleEnsemble(end)
    for name in names:
        extra = {}
        if name == "nll":
            value = nll
            extra = {"holdout_disjoint_from_training": True}  # by pool construction
        elif name == "kl_moment":
            if pushed is None:
                pushed = flowchain.forward_map(chn, holdout)
            value = metrics.moment_fit_kl(pushed, target)
        else:
            value = _sample_metric(name, generated, holdout)
        reports.append(metrics.MetricReport(name, float(value), sizes, seed, extra).__dict__)
    return reports, generated


def _scatter(writer, name, groups):
    svgplot.scatter_svg(writer.path(name), groups)


def _trajectory_plot(writer, chn, data, seed):
    rng = np.random.default_rng([seed, 404])
    x = data.positions[rng.choice(data.m, size=min(8, data.m), replace=False)]
    # the start points as one batch, sampled at block boundaries; enough for a path plot
    pts = [x]
    for block in chn.blocks:
        x = odeint.integrate(block.field, x, block.integrator)
        pts.append(x)
    svgplot.trajectories_svg(writer.path("trajectories.svg"), np.stack(pts, axis=1),
                             points=data.positions[:512])


def _report(writer, raw, task, seed, payload):
    # the output directory is provenance-neutral: it never affects values,
    # and keeping it out of report.json keeps reruns byte-comparable
    echo = {section: dict(values) for section, values in raw.items()}
    echo["experiment"]["task"] = task
    echo["experiment"]["seed"] = str(seed)
    echo["experiment"]["out"] = ""
    payload = {"task": task, "seed": seed, "config": echo, **payload}
    writer.json("report.json", payload)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(echo)
    with open(writer.path("config_echo.ini"), "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# tasks

def _task_train(task, cfg, seed, writer):
    source, target, train_pool, holdout = _dataset_pools(cfg, seed)
    d = train_pool.d
    if not isinstance(target, (ds.Gaussian, ds.GaussianMixture)):
        raise ConfigError("training targets must be analytic densities")
    names = _metric_list(cfg, task, "holdout", holdout.m, d)  # generated has holdout.m too
    # nll training needs the base's tape log-pdf, jko the target's tape potential
    # and the kl_moment metric its closed-form KL: only a Gaussian target has them
    if not isinstance(target, ds.Gaussian):
        needs = (task if task in ("train-cnf", "train-jko")
                 else "metric kl_moment" if "kl_moment" in names else None)
        if needs:
            raise ConfigError(f"{needs} needs a Gaussian [dataset] target, got "
                              f"{cfg['dataset']['target']}")
    # progressive tasks report each block's kl_moment on the pushed training particles
    need = _min_points("kl_moment", d)
    progressive = task in ("train-jko", "train-lfm")
    if progressive and isinstance(target, ds.Gaussian) and train_pool.m < need:
        raise ConfigError(f"[dataset] count = {train_pool.m} is too small for the per-block "
                          f"kl_moment, which needs at least {need} points")
    chn = _build_chain(cfg, d, target, seed)
    tcfg = _train_config(cfg, seed)
    losses, walls = [], []
    block_summary = []

    if task == "train-cnf":
        result = obj.train_block("nll", chn, train_pool, tcfg)
        losses, walls = result.losses, result.wall_ms
    elif task == "train-fm":
        if len(chn.blocks) != 1:
            raise ConfigError("train-fm uses a single block; set [model] blocks = 1")
        noise = ds.ParticleEnsemble(target.sample(train_pool.m,
                                                  np.random.default_rng([seed, 77])))
        result = obj.train_block("fm", chn.blocks[0], (train_pool, noise), tcfg)
        losses, walls = result.losses, result.wall_ms
    else:  # progressive: train-jko / train-lfm
        kind = "jko" if task == "train-jko" else "local_fm"
        cfgs = [dataclasses.replace(tcfg, seed=seed + 1000 * n) for n in range(len(chn.blocks))]
        for n, (result, particles) in enumerate(
                obj.train_progressive(kind, chn.blocks, train_pool, cfgs, potential=target)):
            losses.extend(result.losses)
            walls.extend(result.wall_ms)
            summary = {"block": n, "final_loss": float(result.losses[-1])}
            if isinstance(target, ds.Gaussian):
                summary["kl_moment"] = metrics.moment_fit_kl(particles, target)
            block_summary.append(summary)

    flowchain.save_checkpoint(chn, writer.path("chain.wflw"))
    _write_loss_csv(writer, np.asarray(losses), np.asarray(walls))
    reports, generated = _chain_metrics(names, chn, target, holdout, seed)
    ds.save_particles_csv(writer.path("samples.csv"), generated)
    if d == 2:
        _scatter(writer, "samples.svg",
                 [(holdout.positions, "data"), (generated.positions, "model")])
        _trajectory_plot(writer, chn, holdout, seed)
    return {"metrics": reports, "final_loss": float(losses[-1]) if len(losses) else None,
            "blocks": block_summary, "parameters": chn.parameter_count()}


def _task_ot(cfg, seed, writer):
    source, target, train_pool, holdout = _dataset_pools(cfg, seed)
    # a Gaussian moment fit of the count-point pool stands in for a density
    # without a tape log-pdf, and its covariance needs d + 1 points
    p_density = source if isinstance(source, ds.Gaussian) else None
    q_density = target if isinstance(target, ds.Gaussian) else None
    need = _min_points("kl_moment", train_pool.d)
    if None in (p_density, q_density) and train_pool.m < need:
        raise ConfigError(f"[dataset] count = {train_pool.m} is too small for the Gaussian "
                          f"moment fit that stands in for a non-Gaussian density, which "
                          f"needs at least {need} points")
    q_pool = ds.ParticleEnsemble(target.sample(train_pool.m,
                                               np.random.default_rng([seed, 88])))
    chn = _build_chain(cfg, train_pool.d, target if isinstance(target, ds.Gaussian)
                       else ds.standard_gaussian(train_pool.d), seed)
    penalty = cfg["ot"]["penalty"]
    tcfg = dataclasses.replace(_train_config(cfg, seed), gamma=penalty)
    res = tp.ot_train(train_pool, q_pool, chn, tcfg,
                      p_density=p_density, q_density=q_density)
    flowchain.save_checkpoint(chn, writer.path("chain.wflw"))
    _write_loss_csv(writer, res.losses, res.wall_ms)
    mapped = flowchain.forward_map(chn, holdout)
    ds.save_particles_csv(writer.path("samples.csv"), mapped)
    if train_pool.d == 2:
        _scatter(writer, "samples.svg",
                 [(holdout.positions, "p"), (mapped.positions, "F(p)"),
                  (q_pool.positions[: holdout.m], "q")])
    return {"transport_cost": res.transport_cost, "kl_p": res.kl_p, "kl_q": res.kl_q,
            "penalty": penalty}


def _task_dre(cfg, seed, writer):
    n_grid, dim = cfg["dre"]["grid"], cfg["dataset"]["dim"]
    # any grid of 2 or more passes the cap within bit_length dims, so capping
    # the exponent there keeps the power small however large dim is
    if n_grid ** min(dim, MAX_GRID_POINTS.bit_length()) > MAX_GRID_POINTS:
        raise ConfigError(f"[dre] grid = {n_grid} at [dataset] dim = {dim} makes "
                          f"{n_grid}^{dim} support grid points, more than {MAX_GRID_POINTS}")
    source, target, train_pool, _ = _dataset_pools(cfg, seed)
    rng = np.random.default_rng([seed, 99])
    q_pool = ds.ParticleEnsemble(target.sample(train_pool.m, rng))
    bridges, bridge_kind = cfg["dre"]["bridges"], cfg["dre"]["bridge_kind"]
    fit_cfg = obj.TrainConfig(learn_rate=0.006, batch_size=256,
                              iterations=cfg["dre"]["classifier_iterations"], seed=seed)
    grid = support_grid(source, target, train_pool, q_pool, n_grid)
    if not len(grid):
        raise ConfigError(f"[dre] grid = {n_grid} keeps no point where either density lives")
    analytic = None
    try:
        analytic = target.log_pdf(grid) - source.log_pdf(grid)
    except NotImplementedError:
        pass
    if analytic is not None and not np.all(np.isfinite(analytic)):
        # e.g. the checkerboard, whose density is zero off its cells
        raise ConfigError(f"the analytic log-ratio is infinite at "
                          f"{int(np.sum(~np.isfinite(analytic)))} of {len(grid)} grid points, "
                          "where one density vanishes; dre needs a source and a target "
                          "with the same support")
    if bridge_kind == "ou":
        path = ou_bridge_path(train_pool, q_pool, bridges, rng)
    else:
        if not cfg["model"]["checkpoint"]:
            raise ConfigError("[dre] bridge_kind = flow needs [model] checkpoint")
        chn = _load_checkpoint(cfg)
        if chn.d != train_pool.d:
            raise ConfigError(f"[model] checkpoint is {chn.d}-D but the dataset is "
                              f"{train_pool.d}-D")
        path = flow_bridge_path(chn, train_pool, q_pool, bridges)

    direct = tp.fit_logistic_ratio(train_pool, q_pool, fit_cfg).log_ratio(grid)
    tele = tp.telescopic_log_ratio(path, grid, fit_cfg)

    with open(writer.path("dre.csv"), "w", encoding="ascii") as fh:
        coord_names = ",".join(f"x{k}" for k in range(train_pool.d))
        fh.write(f"{coord_names},analytic,direct,telescopic\n")
        for i in range(len(grid)):
            coords = ",".join(repr(float(v)) for v in grid[i])
            ana = repr(float(analytic[i])) if analytic is not None else ""
            fh.write(f"{coords},{ana},{float(direct[i])!r},{float(tele[i])!r}\n")
    payload = {"bridges": bridges, "bridge_kind": bridge_kind, "grid_points": len(grid)}
    if analytic is not None:
        payload["mse_direct"] = float(np.mean((direct - analytic) ** 2))
        payload["mse_telescopic"] = float(np.mean((tele - analytic) ** 2))
    if train_pool.d == 2:
        _scatter(writer, "samples.svg",
                 [(train_pool.positions, "p"), (q_pool.positions, "q")])
    return payload


def _task_dro(cfg, seed, writer):
    source, _, train_pool, holdout = _dataset_pools(cfg, seed)
    c = np.asarray(cfg["dro"]["risk_c"])  # [dro] risk admits only linear
    if len(c) != train_pool.d:
        raise ConfigError(f"[dro] risk_c needs {train_pool.d} components")
    risk = tp.RiskFunction.linear(c)
    gamma = cfg["dro"]["gamma"]
    tcfg = dataclasses.replace(_train_config(cfg, seed), gamma=gamma)
    res = tp.dro_train(risk, train_pool, tcfg)
    _write_loss_csv(writer, res.losses, res.wall_ms)
    ds.save_particles_csv(writer.path("samples.csv"), res.ensemble)
    if train_pool.d == 2:
        _scatter(writer, "samples.svg",
                 [(train_pool.positions, "p"), (res.ensemble.positions, "worst-case")])
    return {"risk": res.risk, "movement": res.movement, "gamma": gamma}


def _task_eval(cfg, seed, writer):
    source, target, train_pool, _ = _dataset_pools(cfg, seed)
    rng = np.random.default_rng([seed, 55])
    q_pool = ds.ParticleEnsemble(target.sample(train_pool.m, rng))
    reports = []
    sizes = {"p": train_pool.m, "q": q_pool.m}
    names = _metric_list(cfg, "eval", "count", train_pool.m, train_pool.d)
    for key, density in (("source", source), ("target", target)):
        if "kl_mc" in names and isinstance(density, ds.TwoMoons):
            raise ConfigError(f"metric kl_mc needs a log-density, and [dataset] {key} = "
                              "two-moons has none")
    for name in names:
        if name == "kl_mc":
            res = metrics.kl_mc(source.log_pdf, target.log_pdf, train_pool)
            reports.append(metrics.MetricReport(
                name, res.value, sizes, seed,
                {"std_err": res.std_err, "n_nonfinite": res.n_nonfinite}).__dict__)
            continue
        value = _sample_metric(name, train_pool, q_pool)
        reports.append(metrics.MetricReport(name, float(value), sizes, seed).__dict__)
    if train_pool.d == 2:
        _scatter(writer, "samples.svg",
                 [(train_pool.positions, "p"), (q_pool.positions, "q")])
    return {"metrics": reports}


def _task_sample(cfg, seed, writer):
    checkpoint = cfg["model"]["checkpoint"]
    count = cfg["dataset"]["count"]
    if checkpoint:
        chn = _load_checkpoint(cfg)
    else:
        target = _preset(cfg["dataset"], "target")
        if not isinstance(target, (ds.Gaussian, ds.GaussianMixture)):
            raise ConfigError("sampling without a checkpoint needs an analytic target")
        chn = _build_chain(cfg, target.d, target, seed)
    generated = flowchain.sample(chn, count, np.random.default_rng([seed, 1]))
    ds.save_particles_csv(writer.path("samples.csv"), generated)
    if generated.d == 2:
        _scatter(writer, "samples.svg", [(generated.positions, "samples")])
    return {"count": count, "checkpoint": checkpoint or None}


def support_grid(source, target, p_pool, q_pool, n_grid):
    """Product grid over the joint bounding box, kept where either density lives.

    Log-ratio targets are meaningless where both densities vanish, so grid
    points below MIN_LOG_DENSITY under both p and q are dropped.
    """
    joint = np.concatenate([p_pool.positions, q_pool.positions])
    lo, hi = joint.min(axis=0), joint.max(axis=0)
    axes = [np.linspace(lo[k], hi[k], n_grid) for k in range(p_pool.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    try:
        keep = np.maximum(source.log_pdf(grid), target.log_pdf(grid)) >= MIN_LOG_DENSITY
        grid = grid[keep]
    except NotImplementedError:
        pass
    return grid


def ou_bridge_path(p_pool, q_pool, bridges, rng):
    """Interpolating ensembles: p, OU-shrunk copies of p, then q.

    The mean-reverting step pulls the p cloud toward the standard normal,
    which typically sits between distant p and q supports; the final hop
    lands on the q samples themselves.
    """
    stream = int(rng.integers(2**31))
    path = [p_pool]
    for k in range(1, bridges):
        frac = k / bridges
        gamma_k = -np.log(max(1e-9, 1.0 - 0.85 * frac))
        _, x_r = obj.make_local_fm_targets(p_pool, gamma_k,
                                           np.random.default_rng([stream, k]))
        path.append(x_r)
    path.append(q_pool)
    return path


def flow_bridge_path(chn, p_pool, q_pool, bridges):
    """Intermediates from pushing p part way through a trained transport chain."""
    times = np.linspace(0.0, chn.t_total, bridges + 1)[1:-1]
    path = [p_pool]
    for s in times:
        x = p_pool.positions
        for block in chn.blocks:
            t_a, t_b = block.integrator.interval
            if s <= t_a + 1e-12:
                break
            stop = min(s, t_b)
            frac = (stop - t_a) / (t_b - t_a)
            steps = max(1, int(round(block.integrator.steps * frac)))
            sub = odeint.IntegratorConfig(block.integrator.scheme, steps, (t_a, stop))
            x = odeint.integrate(block.field, x, sub)
        path.append(ds.ParticleEnsemble(x))
    path.append(q_pool)
    return path


def run_experiment(config_path, task=None, seed=None, out=None) -> int:
    """Run one experiment; returns the process exit code."""
    try:
        raw, cfg = parse_config(config_path)
        experiment = cfg["experiment"]
        task = _value("experiment", "task", task) if task else experiment["task"]
        if task is None:
            raise ConfigError(f"no task given; known: {', '.join(TASKS)}")
        seed = experiment["seed"] if seed is None else _value("experiment", "seed", str(seed))
        writer = ArtifactWriter(out or experiment["out"] or os.path.join("runs", task))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    t0 = time.time()
    try:
        if task in ("train-cnf", "train-jko", "train-fm", "train-lfm"):
            payload = _task_train(task, cfg, seed, writer)
        elif task == "ot":
            payload = _task_ot(cfg, seed, writer)
        elif task == "dre":
            payload = _task_dre(cfg, seed, writer)
        elif task == "dro":
            payload = _task_dro(cfg, seed, writer)
        elif task == "eval":
            payload = _task_eval(cfg, seed, writer)
        else:
            payload = _task_sample(cfg, seed, writer)
        _report(writer, raw, task, seed, payload)
    except ConfigError as err:
        writer.rollback()
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (nc.NumericError, obj.TrainingDiverged, tp.UnboundedRiskError,
            flowchain.CheckpointError) as err:
        writer.rollback()
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as err:
        # numpy refuses an array larger than the address space with this
        # ValueError before it allocates; any other ValueError is a defect
        if isinstance(err, ValueError) and not str(err).startswith("array is too big"):
            raise
        writer.rollback()
        reason = str(err) or type(err).__name__
        print(f"config error: the run does not fit in memory: {reason}", file=sys.stderr)
        return 2
    # wall-clock and timestamps live outside the deterministic artifacts
    with open(writer.path("run_meta.json"), "w", encoding="ascii") as fh:
        json.dump({"started_unix": t0, "elapsed_s": time.time() - t0}, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wflow",
        description="desk-scale flow-model laboratory: train, evaluate, sample, transport",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)
    return run_experiment(args.config, task=args.task, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Traced replay of one tridiff CLI command, for the benchmark's
per-layer metrics.

Run as a script, it wraps every public function of tridiff's data,
nuisance, scores, estimators and dgp modules in a span recorder, runs
``tridiff.cli.main`` on the arguments after ``--``, and writes the spans
and counts as JSON when the command ends:

    python3 perfbench/tracing.py --spans OUT.json --run-id ID -- estimate ...

A span is [id, name, label, start, end, parent]; ids index the span
list and parents always precede their children. The label tells calls
of one function apart where the layer metrics need it (score kind,
nuisance mode, standard-error kind, bootstrap estimator). Spans stay in
memory until the command returns. Nothing under ``src/`` is changed:
the wrappers replace module attributes in this process only.

``summarize`` turns one spans file into the per-layer metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import collections
import inspect
import json
import sys
import time

TRACED_MODULES = ("data", "nuisance", "scores", "estimators", "dgp")


class Tracer:
    """Span and count recorder for one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = collections.Counter()
        self.loaded = None  # dataset returned by the first load_csv call
        self._stack = []

    def call(self, name, label, fn, args, kwargs):
        record = [len(self.spans), name, label, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": dict(self.counts)}


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _labeler(qualname: str):
    """Label for the calls the per-layer metrics split by argument."""
    if qualname == "scores.score_vector":
        return lambda a, k: _arg(a, k, 0, "kind").value
    if qualname == "nuisance.fit_nuisances":
        from tridiff.nuisance import NuisanceMode
        return lambda a, k: _arg(a, k, 1, "mode", NuisanceMode.SCORE_SET).value
    if qualname == "estimators.ols_tdid":
        from tridiff.estimators import SeKind
        return lambda a, k: _arg(a, k, 2, "se_kind", SeKind.ROBUST).value
    if qualname == "estimators.bootstrap_se":
        return lambda a, k: getattr(_arg(a, k, 1, "estimator"),
                                    "bootstrap_label", None)
    return lambda a, k: None


def _wrap(tracer: Tracer, qualname: str, fn):
    label_of = _labeler(qualname)

    def traced(*args, **kwargs):
        result = tracer.call(qualname, label_of(args, kwargs), fn, args, kwargs)
        if qualname == "nuisance.fit_logistic_multinomial":
            tracer.counts["newton_iters"] += int(result.n_iter)
        elif qualname == "data.load_csv" and tracer.loaded is None:
            tracer.loaded = result
        elif qualname == "estimators.refit_estimator":
            result = _wrap_draw(tracer, result,
                                "naive" if _arg(args, kwargs, 3, "naive")
                                else "dr")
        return result

    return traced


def _wrap_draw(tracer: Tracer, estimator, label: str):
    """One bootstrap refit, tagged so bootstrap_se spans know their kind."""
    def draw(ds):
        return tracer.call("estimators.bootstrap_refit", label, estimator,
                           (ds,), {})
    draw.bootstrap_label = label
    return draw


def instrument(tracer: Tracer) -> None:
    """Replace every public function of the traced modules, wherever a
    tridiff module holds a reference to it, by a span-recording wrapper.
    Also span PanelDataset.subset and dgp's per-replication worker, and
    count PropensityModel.predict calls."""
    import tridiff.cli  # noqa: F401  (loads every module that holds references)
    from tridiff import data, dgp, nuisance

    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"tridiff.{short}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[obj] = _wrap(tracer, f"{short}.{name}", obj)
    for modname, module in list(sys.modules.items()):
        if modname == "tridiff" or modname.startswith("tridiff."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    dgp._run_one = _wrap(tracer, "dgp.replication", dgp._run_one)
    data.PanelDataset.subset = _wrap(tracer, "data.subset",
                                     data.PanelDataset.subset)
    predict = nuisance.PropensityModel.predict

    def counted_predict(self, x):
        tracer.counts["propensity_predicts"] += 1
        return predict(self, x)

    nuisance.PropensityModel.predict = counted_predict


def run_traced(run_id: str, cli_args):
    """Trace one CLI command in this process; returns (exit code, tracer).

    When the command loaded a CSV, the stacked three-way regression is
    also timed with the hc1 and classical standard errors on that
    dataset, as spans outside the command's own span, so every SeKind
    has a layer metric."""
    import tridiff.cli
    from tridiff import estimators

    tracer = Tracer(run_id)
    instrument(tracer)
    code = tracer.call("cli.main", None, tridiff.cli.main, (cli_args,), {})
    if code == 0 and tracer.loaded is not None:
        dataset = tracer.loaded
        for kind in (estimators.SeKind.ROBUST, estimators.SeKind.CLASSICAL):
            estimators.ols_tdid(dataset, bool(dataset.d), kind)
    return code, tracer


# ---------------------------------------------------------------------------
# Per-layer metrics from one spans file
# ---------------------------------------------------------------------------

MEAN_SPAN_METRICS = {
    # metric name: (span name, label or None for any)
    "data.load_csv_s": ("data.load_csv", None),
    "data.subset_s": ("data.subset", None),
    "nuisance.fit_nuisances_s": ("nuisance.fit_nuisances", "score-set"),
    "nuisance.fit_eight_model_s": ("nuisance.fit_nuisances", "eight-model-or"),
    "nuisance.fit_logistic_multinomial_s":
        ("nuisance.fit_logistic_multinomial", None),
    "scores.score_vector_s.dr_a": ("scores.score_vector", "dr_a"),
    "scores.score_vector_s.dr_b": ("scores.score_vector", "dr_b"),
    "scores.score_vector_s.weighted_dr": ("scores.score_vector", "weighted_dr"),
    "estimators.estimate_reweighted_difference_s":
        ("estimators.estimate_reweighted_difference", None),
    "estimators.estimate_naive_difference_s":
        ("estimators.estimate_naive_difference", None),
    "estimators.influence_variance_s": ("estimators.influence_variance", None),
    "estimators.ols_tdid_s.cluster": ("estimators.ols_tdid", "cluster"),
    "estimators.ols_tdid_s.hc1": ("estimators.ols_tdid", "hc1"),
    "estimators.ols_tdid_s.classical": ("estimators.ols_tdid", "classical"),
    "estimators.or_table_s": ("estimators.or_table", None),
    "dgp.simulate_replicate_s": ("dgp.simulate_replicate", None),
    "dgp.replication_s": ("dgp.replication", None),
}

COUNT_METRICS = {
    "nuisance.newton_iters": "newton_iters",
    "nuisance.propensity_predicts": "propensity_predicts",
}


def summarize(doc: dict) -> dict:
    """Per-layer metrics of one traced command.

    Span metrics are the mean inclusive duration per call, 0 when the
    command made no such call. A bootstrap draw is the wall time of a
    bootstrap section divided by the refits in it: ``bootstrap_se`` for
    dr and naive, ``or_table`` for the eight-model block, whose draws are
    its eight-model ``fit_nuisances`` calls. ``cli.self_s`` is the
    command's span minus the layer spans directly under it."""
    spans = doc["spans"]
    by_key = collections.defaultdict(list)
    for _, name, label, start, end, _ in spans:
        by_key[(name, label)].append(end - start)
    by_name = collections.defaultdict(list)
    for (name, _), durations in by_key.items():
        by_name[name].extend(durations)

    metrics = {}
    for metric, (name, label) in MEAN_SPAN_METRICS.items():
        durations = by_name[name] if label is None else by_key[(name, label)]
        metrics[metric] = sum(durations) / len(durations) if durations else 0.0
    for metric, key in COUNT_METRICS.items():
        metrics[metric] = int(doc["counts"].get(key, 0))

    # nearest bootstrap-section ancestor of every span
    section = [None] * len(spans)
    section_time = collections.Counter()
    draws = collections.Counter()
    kind = {}
    for sid, name, label, start, end, parent in spans:
        inherited = section[parent] if parent is not None else None
        if name in ("estimators.bootstrap_se", "estimators.or_table"):
            section[sid] = sid
            kind[sid] = "or" if name == "estimators.or_table" else label
        else:
            section[sid] = inherited
        if inherited is None:
            continue
        if (name == "estimators.bootstrap_refit"
                or (name == "nuisance.fit_nuisances"
                    and label == "eight-model-or")):
            draws[inherited] += 1
    for sid, name, label, start, end, parent in spans:
        if section[sid] == sid and draws[sid]:
            section_time[kind[sid]] += end - start
    draw_counts = collections.Counter()
    for sid, count in draws.items():
        draw_counts[kind[sid]] += count
    for label in ("dr", "naive", "or"):
        metrics[f"estimators.bootstrap_draw_s.{label}"] = (
            section_time[label] / draw_counts[label]
            if draw_counts[label] else 0.0)

    main_span = next(s for s in spans if s[1] == "cli.main")
    children = sum(end - start for _, _, _, start, end, parent in spans
                   if parent == main_span[0])
    metrics["cli.self_s"] = (main_span[4] - main_span[3]) - children
    return metrics


def probe_seconds(doc: dict) -> float:
    """Time spent in spans outside the command's own (the OLS probes)."""
    return sum(end - start for _, name, _, start, end, parent in doc["spans"]
               if parent is None and name != "cli.main")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args
    code, tracer = run_traced(ns.run_id, cli_args)
    with open(ns.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

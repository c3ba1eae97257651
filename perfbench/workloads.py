"""The benchmark's workloads: set-up, timed region, output checks, traced run.

Why these three (see README.md for the measured breakdown):

* ``exhaustive2`` is the paper's single-threaded headline, the sweep over
  all 36,864 two-state frames.  Local profiles repeat heavily (192 distinct
  ``(belief[s], union[s])`` pairs over 73,728 state visits) and frames are
  tiny, so per-frame glue and any memo show most here.
* ``random3`` samples three-state frames and runs the process-pool path
  (sampling in the parent, pickled partitions, ``merge_reports``).  Profiles
  barely repeat and the two rules dominate, so kernel changes show and a
  memo should not.
* ``tools`` is one closed-loop client calling ``kripkelewis.cli.main`` on
  frames of 2 to 5 states, half of them ranked so every check scans all
  assignments, with one call in ten a documented malformed input.  It uses
  the parser, the loaders and the single-shot evaluators the sweeps never
  touch, so a sweep-only change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs
from spans import Tracer

DEFAULT_SEED = 42

# sha256 of the sweep report (sorted-key JSON without ``duration_ms``) for
# the exhaustive2 sweep and the random3 sweep drawn with DEFAULT_SEED,
# recorded when the benchmark was defined, keyed by (mode, size, count, seed).
REPORT_DIGESTS = {
    ("exhaustive", 2, None, None):
        "058453b7bc09785f13f3d5ba24112eaeca0aeaed0aa91631c2dc0247a78e4dba",
    ("random", 3, 1_000, DEFAULT_SEED):
        "acd118acf93ddf6bfc33be4a3bf6eb879f5803fe5758d14ee6dba98c87382c52",
}


@dataclass
class Window:
    """One stretch of the timed region: its time, the operations it
    completed (frames or calls) and the latency of each public-API call,
    all rescaled to the reference host speed (hostspeed.py)."""

    seconds: float
    items: int
    latencies_s: list[float]

    def percentile(self, q: int) -> float:
        if len(self.latencies_s) == 1:
            return self.latencies_s[0]
        return statistics.quantiles(self.latencies_s, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    """What one run produced: its windows and the problems the checks found.

    The end-to-end figures are medians over windows, so a burst of
    contention on a shared host moves one window rather than the run.
    """

    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def median(self, figure) -> float:
        return statistics.median(figure(w) for w in self.windows)


def overhead(traced_s: float, before_s: float, after_s: float) -> float:
    """Traced wall time over the mean of the untraced passes either side of
    it (which cancels a steady drift in host speed), minus 1."""
    return traced_s / ((before_s + after_s) / 2) - 1


def report_digest(report_json: dict) -> str:
    body = {k: v for k, v in report_json.items() if k != "duration_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Tracing: which public functions to wrap, under which span names.
# ---------------------------------------------------------------------------

LAYERS = ("bench", "correspondence", "axioms", "model", "properties", "revision", "parser", "cli")
_LETTERS = {"A1": 3, "A2": 1, "A3": 2, "A4": 2, "A5": 2, "A7": 3, "A8": 3}


def install_tracing(tracer: Tracer, pkg) -> None:
    """Wrap the public functions where correspondence, axioms, revision and
    cli look them up, so the trace follows what those modules call."""
    co, ax, rv, cl = pkg.correspondence, pkg.axioms, pkg.revision, pkg.cli
    evaluator_cls = ax.SchemaEvaluator  # the name is wrapped below
    axiom_span = {k: f"axioms.check_axiom.{k.value}" for k in ax.AxiomId}
    rule_span = {k: f"axioms.rule.{k.value}" for k in ax.AxiomId}
    prop_span = {k: f"properties.check_property.{k.value}" for k in pkg.properties.PropertyId}
    agm_span = {k: f"revision.agm_event_check.{k.value}" for k in rv.AgmPostulateId}

    def count_assignments(args, witness) -> None:
        evaluator, k = args
        letters = _LETTERS[k.value]
        base = evaluator.full + 1
        if witness is None:
            scanned = base**letters
        else:
            rank = 0
            for letter in inputs.ATOMS[:letters]:
                rank = rank * base + witness.events[letter]
            scanned = rank + 1
        tracer.count(f"assignments.{k.value}", scanned)

    def next_frame(args):
        tracer.op_id += 1
        return "correspondence.triple_check"

    tracer.patch(co, "sweep", "correspondence.sweep")
    tracer.patch(co, "triple_check", next_frame)
    tracer.patch(co, "frame_from_code", "correspondence.frame_from_code")
    tracer.patch_generator(co, "sample_frames", "correspondence.sample_frames")
    tracer.patch(co, "merge_reports", "correspondence.merge_reports")
    tracer.patch(co.Report, "add_record", "correspondence.add_record")
    for owner in (co, ax):
        tracer.patch(owner, "SchemaEvaluator", "axioms.SchemaEvaluator")
    tracer.patch(evaluator_cls, "check_axiom", lambda a: axiom_span[a[1]], count_assignments)
    for owner in (co, cl):
        tracer.patch(owner, "rule_valid_on_frame", lambda a: rule_span[a[1]])
        tracer.patch(owner, "countermodel_from_witness", "axioms.countermodel")
        tracer.patch(owner, "truth", "model.truth")
        tracer.patch(owner, "check_property", lambda a: prop_span[a[1]])
        tracer.patch(owner, "agm_event_check", lambda a: agm_span[a[2]])
    for owner in (ax, rv):
        tracer.patch(owner, "truth_set", "model.truth_set")
    tracer.patch(cl, "revise_membership", "revision.revise_membership")
    tracer.patch(cl, "load_frame", "model.load_frame")
    tracer.patch(cl, "load_model", "model.load_model")
    tracer.patch(cl, "model_to_json", "model.model_to_json")
    tracer.patch(cl, "parse", "parser.parse")
    tracer.patch(cl, "format_formula", "parser.format_formula")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run over ``ops``
    operations (frames for a sweep, calls for tools)."""
    summary = tracer.summary(keep_durations=("cli.",))
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": None}

    def row(name: str) -> dict:
        return summary.get(name, empty)

    def total(prefix: str) -> int:
        return sum(r["total_ns"] for nm, r in summary.items() if nm.startswith(prefix))

    def mean_us(name: str, kind: str = "total_ns") -> float:
        r = row(name)
        return r[kind] / r["calls"] / 1e3 if r["calls"] else 0.0

    def per_op(name: str) -> float:
        return row(name)["calls"] / ops if ops else 0.0

    out: dict[str, tuple[float, str]] = {}
    out["correspondence.triple_check_us"] = (mean_us("correspondence.triple_check"), "us")
    out["correspondence.triple_check_self_us"] = (
        mean_us("correspondence.triple_check", "self_ns"), "us")
    out["correspondence.frame_from_code_us"] = (mean_us("correspondence.frame_from_code"), "us")
    sampled = tracer.counters.get("correspondence.sample_frames.items", 0)
    out["correspondence.sample_frames_us"] = (
        total("correspondence.sample_frames") / sampled / 1e3 if sampled else 0.0, "us")
    out["correspondence.merge_reports_ms"] = (mean_us("correspondence.merge_reports") / 1e3, "ms")
    out["correspondence.add_record_us"] = (mean_us("correspondence.add_record"), "us")
    for name in ("load_frame", "load_model", "truth", "truth_set"):
        out[f"model.{name}_us"] = (mean_us(f"model.{name}"), "us")
    out["model.truth_calls"] = (per_op("model.truth"), "count")
    out["model.truth_set_calls"] = (per_op("model.truth_set"), "count")
    out["axioms.SchemaEvaluator_us"] = (mean_us("axioms.SchemaEvaluator"), "us")
    for k in inputs.SCHEMAS:
        out[f"axioms.check_axiom_us.{k}"] = (mean_us(f"axioms.check_axiom.{k}"), "us")
    for k in inputs.SCHEMAS:
        calls = row(f"axioms.check_axiom.{k}")["calls"]
        scanned = tracer.counters.get(f"assignments.{k}", 0)
        out[f"axioms.assignments.{k}"] = (scanned / calls if calls else 0.0, "count")
    for k in inputs.RULES:
        out[f"axioms.rule_us.{k}"] = (mean_us(f"axioms.rule.{k}"), "us")
    out["axioms.countermodel_us"] = (mean_us("axioms.countermodel"), "us")
    for k in inputs.PROPERTIES:
        out[f"properties.check_property_us.{k}"] = (
            mean_us(f"properties.check_property.{k}"), "us")
    for k in ("K1", "K2", "K3", "K4", "K5a", "K5b", "K6", "K7", "K8"):
        out[f"revision.agm_event_check_us.{k}"] = (
            mean_us(f"revision.agm_event_check.{k}"), "us")
    out["parser.parse_us"] = (mean_us("parser.parse"), "us")
    out["parser.format_formula_us"] = (mean_us("parser.format_formula"), "us")
    for cmd in TOOLS_COMMANDS:
        durations = row(f"cli.{cmd}")["durations"]
        out[f"cli.{cmd}_ms.p50"] = (
            statistics.median(durations) / 1e6 if durations else 0.0, "ms")

    root = row("bench")["total_ns"]
    for layer in LAYERS:
        own = sum(r["self_ns"] for nm, r in summary.items()
                  if nm == layer or nm.startswith(layer + "."))
        out[f"self_frac.{layer}"] = (own / root if root else 0.0, "frac")
    frame_ns = row("correspondence.triple_check")["total_ns"]
    shares = {
        "rules": total("axioms.rule."),
        "replay": total("axioms.countermodel") + row("model.truth")["total_ns"],
        "schemas": total("axioms.SchemaEvaluator") + total("axioms.check_axiom."),
        "checks": total("properties.") + total("revision."),
    }
    # Inside a sweep every rule, schema, replay and check span is a child of
    # triple_check; the rule spans' truth_set children are inside "rules".
    for key, ns in shares.items():
        out[f"frame_share.{key}"] = (ns / frame_ns if frame_ns else 0.0, "frac")
    return out


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


class SweepWorkload:
    """Repeated ``sweep`` calls; exhaustive when ``count`` is None."""

    def __init__(self, name: str, size: int, count: int | None, workers: int):
        self.name = name
        self.size = size
        self.count = count
        self.workers = workers

    def setup(self, pkg, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        seeds = [seed] + [rng.randrange(2**31) for _ in range(63)]
        SweepConfig = pkg.correspondence.SweepConfig
        if self.count is None:
            return [SweepConfig(size=self.size, mode="exhaustive")] * len(seeds)
        return [
            SweepConfig(size=self.size, mode="random", count=self.count, seed=s) for s in seeds
        ]

    def expected_frames(self) -> int:
        if self.count is not None:
            return self.count
        full = (1 << self.size) - 1
        return full**self.size * (full + 1) ** (self.size * full)

    def measure(self, pkg, configs: list, seconds: float) -> Outcome:
        """Sweep until another sweep as long as the last would take the
        timed total past ``seconds``.  Each sweep's time is rescaled to the
        reference host speed (see hostspeed.py): a single-process sweep by
        reference samples taken during it, a pool sweep by the reference run
        in the otherwise idle parent just before and just after it."""
        reports, times = [], []
        elapsed = last = 0.0
        before = hostspeed.reference()
        for cfg in configs:
            t0 = time.perf_counter()
            if self.workers > 1:
                report = pkg.correspondence.sweep(cfg, workers=self.workers)
                last = time.perf_counter() - t0
                after = hostspeed.reference()
                refs, before = [before, after], after
            else:
                with hostspeed.Sampler() as sampler:
                    report = pkg.correspondence.sweep(cfg, workers=1)
                last = time.perf_counter() - t0 - sampler.stolen
                refs = sampler.samples or [before]
            times.append(last * hostspeed.scale(refs))
            reports.append(report.to_json())
            elapsed += last
            if elapsed + last > seconds:
                break
        outcome = Outcome([Window(t, self.expected_frames(), [t]) for t in times])
        for cfg, report in zip(configs, reports):
            self._record(outcome, self.check(cfg, report))
        return outcome

    def _record(self, outcome: Outcome, problems: list[str]) -> None:
        frames = self.expected_frames()
        outcome.attempted += frames
        if problems:
            outcome.failed += frames
            outcome.problems.extend(problems)

    def check(self, cfg, report: dict) -> list[str]:
        """Every invariant the correspondence asserts, read off the report."""
        problems = []
        frames = report["totals"]["frames"]
        if report["config"] != cfg.echo():
            problems.append("config echo differs from the request")
        if frames != self.expected_frames():
            problems.append(f"{frames} frames, expected {self.expected_frames()}")
        if report["discrepancies"]:
            problems.append(f"{len(report['discrepancies'])} discrepancies")
        for name, cells in report["per_axiom"].items():
            if cells["pf"] or cells["fp"]:
                problems.append(f"{name} vs axiom off-diagonal {cells}")
        for name, cells in report["per_agm"].items():
            if cells["pf"] or (name != "K4" and cells["fp"]):
                problems.append(f"{name} vs postulate off-diagonal {cells}")
        replay = report["replay"]
        if replay["falsified"] != replay["attempted"]:
            problems.append(f"replay falsified {replay['falsified']}/{replay['attempted']}")
        if replay["attempted"] != report["totals"]["property_violations"]:
            problems.append("a property violation was not replayed")
        for name, valid in report["always_valid"].items():
            if valid != frames:
                problems.append(f"{name} valid on {valid}/{frames} frames")
        recorded = REPORT_DIGESTS.get((cfg.mode, cfg.size, cfg.count, cfg.seed))
        if recorded and report_digest(report) != recorded:
            problems.append("report differs from the recorded digest")
        return problems

    def trace(self, pkg, configs: list, workdir: Path) -> tuple[Outcome, dict]:
        """One sweep in this process untraced, traced, then untraced again;
        the reports must match."""
        cfg = configs[0]

        def plain_sweep() -> tuple[dict, float]:
            t0 = time.perf_counter()
            report = pkg.correspondence.sweep(cfg, workers=1).to_json()
            return report, time.perf_counter() - t0

        plain, before = plain_sweep()

        tracer = Tracer()
        root = tracer.name_id("bench")
        try:
            install_tracing(tracer, pkg)
            t0 = time.perf_counter()
            idx = tracer.open(root)
            traced = pkg.correspondence.sweep(cfg, workers=1).to_json()
            tracer.close(idx)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        after = plain_sweep()[1]

        outcome = Outcome()
        problems = self.check(cfg, traced)
        if report_digest(traced) != report_digest(plain):
            problems.append("traced report differs from the untraced one")
        self._record(outcome, problems)
        tracer.write(workdir / f"spans-{self.name}.bin")
        metrics = layer_metrics(tracer, self.expected_frames())
        metrics["trace.overhead_frac"] = (overhead(traced_wall, before, after), "frac")
        metrics["correspondence.profile_reuse"] = (self.profile_reuse(pkg, cfg), "frac")
        return outcome, metrics

    def profile_reuse(self, pkg, cfg) -> float:
        """Share of state visits whose (belief, union row) profile was
        already seen earlier in the same sweep."""
        co = pkg.correspondence
        if self.count is None:
            frames = (co.frame_from_code(self.size, c) for c in range(self.expected_frames()))
        else:
            frames = co.sample_frames(self.size, self.count, cfg.seed)
        seen = set()
        visits = 0
        for frame in frames:
            for s in range(frame.n):
                visits += 1
                seen.add((frame.belief[s], frame.union[s]))
        return 1 - len(seen) / visits


# ---------------------------------------------------------------------------
# Single-frame tools.
# ---------------------------------------------------------------------------

TOOLS_COMMANDS = ("parse", "eval", "frame-check", "axiom-check", "agm-check", "revise", "countermodel")
TOOLS_SIZES = (2, 3, 4, 5)
FRAMES_PER_CELL = 6  # distinct frames per (state count, uniform or ranked)
BAD_FRAMES_PER_KIND = 4
DECKS = 60
WINDOW_DECKS = 7  # 1,120 calls: p99 has 11 samples beyond it
TRACE_DECKS = 10
_FRAME_COMMANDS = ("frame-check", "axiom-check", "agm-check", "countermodel")


@dataclass
class ToolsState:
    workdir: Path
    frames: dict[str, dict]  # path -> frame JSON, for the checks
    calls: list[dict]


class ToolsWorkload:
    name = "tools"

    def setup(self, pkg, seed: int, workdir: Path) -> ToolsState:
        rng = random.Random(seed)
        workdir = workdir / "tools"
        workdir.mkdir(parents=True, exist_ok=True)
        frames: dict[str, dict] = {}

        def write(stem: str, data: dict) -> str:
            path = workdir / f"{stem}.json"
            path.write_text(json.dumps(data, indent=1))
            frames[str(path)] = data
            return str(path)

        pool = {}
        for n in TOOLS_SIZES:
            for kind, make in (("uniform", inputs.uniform_frame), ("ranked", inputs.ranked_frame)):
                pool[n, kind] = [write(f"{kind}{n}-{i}", make(rng, n)) for i in range(FRAMES_PER_CELL)]
        bad = {}
        for kind in inputs.FRAME_ISSUE_KINDS:
            bad[kind] = []
            for i in range(BAD_FRAMES_PER_KIND):
                good = frames[rng.choice(pool[rng.choice(TOOLS_SIZES), "uniform"])]
                bad[kind].append(write(f"bad-{kind}-{i}", inputs.malformed_frame(rng, good, kind)))
        calls = [call for _ in range(DECKS) for call in self._deck(rng, pool, bad)]
        return ToolsState(workdir, frames, calls)

    def _deck(self, rng: random.Random, pool: dict, bad: dict) -> list[dict]:
        """One stratified round: the same mix of commands per (n, kind)
        cell, the frames, states and formulas drawn from ``rng``."""
        calls = []
        for n in TOOLS_SIZES:
            for kind in ("uniform", "ranked"):
                def pick() -> str:
                    return rng.choice(pool[n, kind])

                tree = inputs.formula_tree(rng)
                calls.append({"argv": ["parse", "--json", inputs.render(tree, rng)], "tree": tree})
                for _ in range(2):
                    tree = inputs.formula_tree(rng)
                    s = rng.randrange(n)
                    calls.append({"argv": ["eval", "--json", "--model", pick(), "--state", f"s{s}",
                                           "--formula", inputs.render(tree, rng)],
                                  "tree": tree, "state": s})
                given, query = inputs.boolean_tree(rng, 2), inputs.boolean_tree(rng, 2)
                s = rng.randrange(n)
                calls.append({"argv": ["revise", "--json", "--model", pick(), "--state", f"s{s}",
                                       "--input", inputs.render(given, rng),
                                       "--query", inputs.render(query, rng)],
                              "input": given, "query": query, "state": s})
                for _ in range(2):
                    prop = rng.choice(inputs.PROPERTIES)
                    calls.append({"argv": ["frame-check", "--frame", pick(), "--props", prop],
                                  "prop": prop})
                for axiom in inputs.SCHEMAS + inputs.RULES:
                    calls.append({"argv": ["axiom-check", "--frame", pick(), "--axiom", axiom],
                                  "axiom": axiom})
                calls.append({"argv": ["agm-check", "--json", "--frame", pick()]})
                for _ in range(2):
                    axiom = rng.choice(inputs.SCHEMAS[1:])
                    calls.append({"argv": ["countermodel", "--json", "--frame", pick(),
                                           "--axiom", axiom], "axiom": axiom})
        for kind in inputs.FRAME_ISSUE_KINDS:
            path = rng.choice(bad[kind])
            if kind == "invalid_atom":
                argv = ["eval", "--model", path, "--state", "s0", "--formula", "p"]
            else:
                command = rng.choice(_FRAME_COMMANDS)
                argv = [command, "--frame", path]
                if command in ("axiom-check", "countermodel"):
                    argv += ["--axiom", rng.choice(inputs.SCHEMAS[1:])]
            calls.append({"argv": argv, "error": f"error: {kind}:"})
        for _ in range(9):
            text, error = inputs.malformed_formula(rng)
            if rng.random() < 0.5:
                argv = ["parse", text]
            else:
                argv = ["eval", "--model", rng.choice(pool[2, "uniform"]), "--state", "s0",
                        "--formula", text]
            marker = "expected" if error == "ParseError" else "must"
            calls.append({"argv": argv, "error": "error: at offset", "marker": marker})
        rng.shuffle(calls)
        return calls

    @staticmethod
    def call(pkg, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(argv)
        wall = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), wall

    def measure(self, pkg, state: ToolsState, seconds: float) -> Outcome:
        """Closed loop, one client: the next call starts when the last
        returns.  Windows of WINDOW_DECKS decks (the same command mix each)
        cycle through the call list until another window would overrun
        ``seconds``.  The reference runs between decks, and each deck's
        latencies are rescaled by the readings either side of it."""
        calls = state.calls
        deck = len(calls) // DECKS
        size = min(WINDOW_DECKS, DECKS) * deck
        first: dict[int, tuple[int, str, str]] = {}
        repeats: list[tuple[int, int, int, int]] = []
        outcome = Outcome()
        i = 0
        elapsed = 0.0
        before = hostspeed.reference()
        while True:
            latencies: list[float] = []
            window_s = window_wall = 0.0
            for _ in range(size // deck):
                walls = []
                t0 = time.perf_counter()
                for _ in range(deck):
                    j = i % len(calls)
                    code, out, err, wall = self.call(pkg, calls[j]["argv"])
                    walls.append(wall)
                    if i < len(calls):
                        first[j] = (code, out, err)
                    else:
                        repeats.append((j, code, hash(out), hash(err)))
                    i += 1
                deck_wall = time.perf_counter() - t0
                after = hostspeed.reference()
                factor = hostspeed.scale([before, after])
                before = after
                latencies += [w * factor for w in walls]
                window_s += deck_wall * factor
                window_wall += deck_wall
            outcome.windows.append(Window(window_s, size, latencies))
            elapsed += window_wall
            if elapsed + window_wall > seconds:
                break
        checker = ToolsChecker(pkg, state)
        verdict = {j: checker.check(calls[j], *result) for j, result in first.items()}
        for j, result in first.items():
            self._record(outcome, verdict[j], calls[j])
        for j, code, out_hash, err_hash in repeats:
            code0, out0, err0 = first[j]
            problems = list(verdict[j])
            if (code, out_hash, err_hash) != (code0, hash(out0), hash(err0)):
                problems.append("output differs from the first call with these arguments")
            self._record(outcome, problems, calls[j])
        return outcome

    @staticmethod
    def _record(outcome: Outcome, problems: list[str], call: dict) -> None:
        outcome.attempted += 1
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"{' '.join(call['argv'])}: {p}" for p in problems)

    def trace(self, pkg, state: ToolsState, workdir: Path) -> tuple[Outcome, dict]:
        """The first TRACE_DECKS decks, each run untraced and traced back to
        back (alternating which goes first, so both see the same host
        speed); every output must match."""
        size = len(state.calls) // DECKS
        calls = state.calls[: TRACE_DECKS * size]
        for c in calls[:size]:  # warm file and import caches
            self.call(pkg, c["argv"])

        tracer = Tracer()
        root = tracer.name_id("bench")
        span = {cmd: tracer.name_id(f"cli.{cmd}") for cmd in TOOLS_COMMANDS}
        plain, traced = [], []

        def run_plain(chunk) -> None:
            plain.extend(self.call(pkg, c["argv"])[:3] for _, c in chunk)

        def run_traced(chunk) -> None:
            try:
                install_tracing(tracer, pkg)
                idx = tracer.open(root)
                for op, c in chunk:
                    tracer.op_id = op
                    inner = tracer.open(span[c["argv"][0]])
                    traced.append(self.call(pkg, c["argv"]))
                    tracer.close(inner)
                tracer.close(idx)
            finally:
                tracer.restore()

        walls = {run_plain: 0.0, run_traced: 0.0}
        for deck in range(TRACE_DECKS):
            chunk = list(enumerate(calls[deck * size: (deck + 1) * size], deck * size))
            for run_chunk in (run_plain, run_traced) if deck % 2 == 0 else (run_traced, run_plain):
                t0 = time.perf_counter()
                run_chunk(chunk)
                walls[run_chunk] += time.perf_counter() - t0

        outcome = Outcome()
        checker = ToolsChecker(pkg, state)
        for c, result, reference in zip(calls, traced, plain):
            problems = checker.check(c, *result[:3])
            if result[:3] != reference:
                problems.append("traced output differs from the untraced one")
            self._record(outcome, problems, c)
        tracer.write(workdir / f"spans-{self.name}.bin")
        metrics = layer_metrics(tracer, len(calls))
        metrics["trace.overhead_frac"] = (walls[run_traced] / walls[run_plain] - 1, "frac")
        metrics["correspondence.profile_reuse"] = (0.0, "frac")
        return outcome, metrics


class ToolsChecker:
    """Checks each CLI result against a route other than the one the
    command took: set-at-a-time truth for pointwise truth, postulates for
    properties, properties for schemas, the schema evaluator for
    countermodel validity, and frames built directly from the generator's
    JSON rather than through the loader."""

    def __init__(self, pkg, state: ToolsState):
        self.pkg = pkg
        self.state = state
        self._models: dict[str, object] = {}
        self._properties: dict[tuple[str, str], bool] = {}
        self._postulates: dict[tuple[str, str], list[bool]] = {}

    def model(self, path: str):
        model = self._models.get(path)
        if model is None:
            model = self._models[path] = direct_model(self.pkg, self.state.frames[path])
        return model

    def property_holds(self, path: str, prop: str) -> bool:
        key = (path, prop)
        if key not in self._properties:
            pid = self.pkg.properties.PropertyId(prop)
            self._properties[key] = self.pkg.properties.check_property(
                self.model(path).frame, pid) is None
        return self._properties[key]

    def postulate_per_state(self, path: str, postulate: str) -> list[bool]:
        key = (path, postulate)
        if key not in self._postulates:
            frame = self.model(path).frame
            kid = self.pkg.revision.AgmPostulateId(postulate)
            self._postulates[key] = [
                self.pkg.revision.agm_event_check(frame, s, kid) is None for s in range(frame.n)
            ]
        return self._postulates[key]

    def check(self, call: dict, code: int, out: str, err: str) -> list[str]:
        argv = call["argv"]
        if "error" in call:
            problems = []
            if code != 2:
                problems.append(f"exit {code}, expected 2")
            if call["error"] not in err or call.get("marker", "") not in err:
                problems.append(f"stderr {err.strip()!r} lacks {call['error']!r}")
            return problems
        command = argv[0]
        try:
            return getattr(self, "_" + command.replace("-", "_"))(call, code, out)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output ({exc!r}): exit {code}, stderr {err.strip()!r}"]

    def _arg(self, call: dict, flag: str) -> str:
        argv = call["argv"]
        return argv[argv.index(flag) + 1]

    def _parse(self, call, code, out) -> list[str]:
        expected = build_formula(self.pkg, call["tree"])
        payload = json.loads(out)
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if payload["ast"] != repr(expected):
            problems.append(f"ast {payload['ast']} differs from the generated tree")
        if self.pkg.parser.parse(payload["formula"]) != expected:
            problems.append("printed formula does not parse back to the input")
        return problems

    def _eval(self, call, code, out) -> list[str]:
        model = self.model(self._arg(call, "--model"))
        f = build_formula(self.pkg, call["tree"])
        expected = bool(self.pkg.model.truth_set(model, f) >> call["state"] & 1)
        value = json.loads(out)["value"]
        if code == 0 and value is expected:
            return []
        return [f"exit {code}, value {value}, truth_set says {expected}"]

    def _revise(self, call, code, out) -> list[str]:
        fm = self.pkg.formula
        model = self.model(self._arg(call, "--model"))
        belief = fm.Bel(fm.Cond(build_formula(self.pkg, call["input"]),
                                build_formula(self.pkg, call["query"])))
        expected = bool(self.pkg.model.truth_set(model, belief) >> call["state"] & 1)
        member = json.loads(out)["member"]
        if code == 0 and member is expected:
            return []
        return [f"exit {code}, member {member}, truth_set of B(input > query) says {expected}"]

    def _frame_check(self, call, code, out) -> list[str]:
        path, prop = self._arg(call, "--frame"), call["prop"]
        holds = all(self.postulate_per_state(path, inputs.PAIRED_POSTULATE[prop]))
        if code not in (0, 1):
            return [f"exit {code}"]
        passed = code == 0
        if prop == "P4":
            return [] if not passed or holds else ["P4 passes but K4 fails"]
        if passed == holds:
            return []
        return [f"{prop} exit {code} but postulate holds={holds}"]

    def _axiom_check(self, call, code, out) -> list[str]:
        axiom = call["axiom"]
        if axiom in ("A1",) + inputs.RULES:
            expected = 0
        else:
            prop = "P" + axiom[1:]
            expected = 0 if self.property_holds(self._arg(call, "--frame"), prop) else 1
        return [] if code == expected else [f"exit {code}, expected {expected}"]

    def _agm_check(self, call, code, out) -> list[str]:
        path = self._arg(call, "--frame")
        frame = self.model(path).frame
        results = json.loads(out)["results"]
        problems = []
        for prop, postulate in inputs.PAIRED_POSTULATE.items():
            held = all(results[name][postulate]["holds"] for name in frame.states)
            passed = self.property_holds(path, prop)
            if (prop == "P4" and passed and not held) or (prop != "P4" and passed != held):
                problems.append(f"{postulate} holds={held} but {prop} passes={passed}")
        for postulate in ("K1", "K5a", "K6"):
            if not all(results[name][postulate]["holds"] for name in frame.states):
                problems.append(f"{postulate} fails")
        failed = not all(r["holds"] for per_state in results.values() for r in per_state.values())
        if code != int(failed):
            problems.append(f"exit {code} with failures={failed}")
        return problems

    def _countermodel(self, call, code, out) -> list[str]:
        pkg = self.pkg
        frame = self.model(self._arg(call, "--frame")).frame
        payload = json.loads(out)
        axiom = pkg.axioms.AxiomId(call["axiom"])
        valid = pkg.axioms.SchemaEvaluator(frame).check_axiom(axiom) is None
        if payload["valid"]:
            return [] if code == 0 and valid else [f"exit {code}, reported valid, evaluator: {valid}"]
        if code != 1 or valid:
            return [f"exit {code}, reported a countermodel, evaluator says valid={valid}"]
        model = direct_model(pkg, payload["model"])
        if model.frame != frame:
            return ["countermodel is not on the input frame"]
        s = frame.states.index(payload["state"])
        instance = pkg.parser.parse(payload["formula"])
        if pkg.model.truth_set(model, instance) >> s & 1 or payload["holds_at_state"]:
            return ["countermodel does not falsify the instance"]
        return []


def build_formula(pkg, tree: tuple):
    """The package's formula object for a generator tree, built from the
    constructors directly (not through the parser)."""
    fm = pkg.formula
    op = tree[0]
    if op == "atom":
        return fm.Atom(tree[1])
    if op == "not":
        return fm.Not(build_formula(pkg, tree[1]))
    if op == "bel":
        return fm.Bel(build_formula(pkg, tree[1]))
    if op == "box":
        return fm.Box(build_formula(pkg, tree[1]))
    ctor = {"cond": fm.Cond, "and": fm.And, "or": fm.Or, "imp": fm.Implies, "iff": fm.Iff}[op]
    return ctor(build_formula(pkg, tree[1]), build_formula(pkg, tree[2]))


def direct_model(pkg, data: dict):
    """A model built straight from its JSON form with the Frame and Model
    constructors, bypassing the validating loader the CLI uses."""
    states = data["states"]
    index = {name: i for i, name in enumerate(states)}
    full = (1 << len(states)) - 1

    def mask(names) -> int:
        return sum(1 << index[name] for name in set(names))

    belief = [mask(data["belief"][name]) for name in states]
    selection = [[0] * (full + 1) for _ in states]
    for entry in data["selection"]:
        selection[index[entry["state"]]][mask(entry["event"])] = mask(entry["selected"])
    valuation = {atom: mask(names) for atom, names in data.get("valuation", {}).items()}
    return pkg.model.Model(pkg.model.Frame(states, belief, selection), valuation)


# ---------------------------------------------------------------------------
# Cold start.
# ---------------------------------------------------------------------------


def cold_cli_ms(root: Path, env: dict, samples: int) -> list[float]:
    """Time of sequential ``python -m kripkelewis.cli parse`` processes, each
    rescaled by the reference run in this process either side of it.  This
    process and so its children are held on one core meanwhile, so that the
    reference and the child run on the same one."""
    times = []
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        before = hostspeed.reference()
        for i in range(samples):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "kripkelewis.cli", "parse", f"B(p{i} > q) -> []r"],
                cwd=root, env=env, capture_output=True, text=True, timeout=60,
            )
            wall = time.perf_counter() - t0
            if done.returncode != 0 or "formula:" not in done.stdout:
                raise RuntimeError(f"cold CLI call failed: {done.stderr.strip()}")
            after = hostspeed.reference()
            times.append(wall * 1e3 * hostspeed.scale([before, after]))
            before = after
    finally:
        os.sched_setaffinity(0, cores)
    return times


def import_ms(root: Path, env: dict, samples: int) -> list[float]:
    """Time to ``import kripkelewis.cli``, measured inside fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import kripkelewis.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    out = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout))
    return out


WORKLOADS = {
    "exhaustive2": SweepWorkload("exhaustive2", size=2, count=None, workers=1),
    # 1,000 frames take about a second on two workers, so a run holds some
    # twenty sweeps, each short enough for the reference either side of it
    # to follow the host's speed.
    "random3": SweepWorkload("random3", size=3, count=1_000, workers=2),
    "tools": ToolsWorkload(),
}

"""Command-line interface.

Exit status: 0 when the command succeeded and every requested check holds,
1 when a check failed (a witness is printed), 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .axioms import (
    AxiomId,
    PAIRED_PROPERTY,
    RULE_IDS,
    rule_valid_on_frame,
    schema_valid_on_frame,
    countermodel_from_witness,
)
from .formula import classify
from .model import (
    FrameIssue,
    FrameValidationError,
    load_frame,
    load_model,
    model_to_json,
    truth,
)
from .parser import format_formula, parse
from .properties import PropertyId, check_property
from .revision import AgmPostulateId, PostulateEvaluator, revise_membership
from .revision import agm_event_check  # noqa: F401  unused; perfbench's tracer patches it by name
from .correspondence import (
    MAX_RANDOM_SIZE,
    SweepConfig,
    SweepError,
    frame_count,
    frame_from_code,
    sweep,
)


class _InputError(Exception):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise FrameValidationError(
            [FrameIssue("bad_structure", f"{path} nests JSON too deeply to read")]
        ) from None


def _frame_arg(args):
    if args.code is not None:
        return _code_frame(args.code)
    return load_frame(_read_json(args.frame))


def _code_frame(text: str):
    """The frame of a digest ``n:code`` as sweep reports print it, with
    states s0 ... s{n-1}."""
    n_text, _, code_text = text.partition(":")
    if not (n_text.isascii() and n_text.isdigit() and code_text.isascii() and code_text.isdigit()):
        raise _InputError(f"bad --code value {text!r} (expected n:code, two decimal integers)")
    n = int(n_text)
    if not 1 <= n <= MAX_RANDOM_SIZE:
        raise _InputError(f"--code {text!r}: state count must be 1 to {MAX_RANDOM_SIZE}")
    # every valid code has fewer digits than int()'s default limit on a string
    count = frame_count(n)
    if len(code_text) > len(str(count)) or not int(code_text) < count:
        raise _InputError(f"--code {text!r}: code must be below {count} for {n} states")
    return frame_from_code(n, int(code_text))


def _model_arg(args):
    return load_model(_read_json(args.model))


def _state_arg(container, name: str) -> int:
    try:
        return container.state_index(name)
    except KeyError as exc:
        raise _InputError(str(exc)) from exc


def cmd_parse(args) -> int:
    f = parse(args.formula)
    if args.json:
        print(_dump({"ast": repr(f), "class": classify(f).value, "formula": format_formula(f)}))
    else:
        print(f"formula: {format_formula(f)}")
        print(f"class: {classify(f).value}")
        print(f"ast: {f!r}")
    return 0


def cmd_eval(args) -> int:
    model = _model_arg(args)
    s = _state_arg(model.frame, args.state)
    f = parse(args.formula)
    value = truth(model, s, f)
    if args.json:
        print(_dump({"formula": format_formula(f), "state": args.state, "value": value}))
    else:
        print("true" if value else "false")
    return 0


def _props_arg(text: str | None) -> list[PropertyId]:
    if not text:
        return list(PropertyId)
    out = []
    for piece in text.split(","):
        try:
            out.append(PropertyId(piece.strip()))
        except ValueError as exc:
            raise _InputError(f"unknown property {piece.strip()!r}") from exc
    return out


def cmd_frame_check(args) -> int:
    frame = _frame_arg(args)
    results = {}
    failed = False
    for prop in _props_arg(args.props):
        w = check_property(frame, prop)
        if w is None:
            results[prop.value] = {"pass": True}
        else:
            failed = True
            results[prop.value] = {"pass": False, "witness": w.to_json(frame)}
    if args.json:
        print(_dump({"results": results}))
    else:
        for name, res in results.items():
            if res["pass"]:
                print(f"{name}: pass")
            else:
                print(f"{name}: FAIL {json.dumps(res['witness'], sort_keys=True)}")
    return 1 if failed else 0


def _axiom_arg(text: str) -> AxiomId:
    try:
        return AxiomId(text)
    except ValueError as exc:
        raise _InputError(f"unknown axiom {text!r}") from exc


def cmd_axiom_check(args) -> int:
    frame = _frame_arg(args)
    axiom = _axiom_arg(args.axiom)
    if axiom in RULE_IDS:
        w = rule_valid_on_frame(frame, axiom)
    else:
        w = schema_valid_on_frame(frame, axiom)
    if args.json:
        payload = {"axiom": axiom.value, "valid": w is None}
        if w is not None:
            payload["witness"] = w.to_json(frame)
        print(_dump(payload))
    else:
        if w is None:
            print(f"{axiom.value}: valid")
        else:
            print(f"{axiom.value}: FAIL {json.dumps(w.to_json(frame), sort_keys=True)}")
    return 0 if w is None else 1


def cmd_agm_check(args) -> int:
    frame = _frame_arg(args)
    states = range(frame.n)
    if args.state is not None:
        states = [_state_arg(frame, args.state)]
    evaluator = PostulateEvaluator(frame)
    live = sum(1 << s for s in states)
    witnesses = [(p.value, evaluator.witnesses(p, live)) for p in AgmPostulateId]
    results = {}
    failed = False
    for s in states:
        per_state = {}
        for name, found in witnesses:
            w = found[s]
            if w is None:
                per_state[name] = {"holds": True}
            else:
                failed = True
                per_state[name] = {"holds": False, "witness": w.to_json(frame)}
        results[frame.states[s]] = per_state
    if args.json:
        print(_dump({"results": results}))
    else:
        for state_name, per_state in results.items():
            for name, res in per_state.items():
                if res["holds"]:
                    print(f"{state_name} {name}: holds")
                else:
                    print(
                        f"{state_name} {name}: FAIL "
                        f"{json.dumps(res['witness'], sort_keys=True)}"
                    )
    return 1 if failed else 0


def cmd_revise(args) -> int:
    model = _model_arg(args)
    s = _state_arg(model.frame, args.state)
    input_f = parse(args.input)
    query = parse(args.query)
    member = revise_membership(model, s, input_f, query)
    if args.json:
        print(
            _dump(
                {
                    "input": format_formula(input_f),
                    "member": member,
                    "query": format_formula(query),
                    "state": args.state,
                }
            )
        )
    else:
        print("true" if member else "false")
    return 0


def cmd_countermodel(args) -> int:
    frame = _frame_arg(args)
    axiom = _axiom_arg(args.axiom)
    paired = PAIRED_PROPERTY.get(axiom)
    if paired is None:
        raise _InputError(f"{axiom.value} is valid on every frame; no countermodel exists")
    w = check_property(frame, paired)
    if w is None:
        if args.json:
            print(_dump({"axiom": axiom.value, "valid": True}))
        else:
            print(f"{axiom.value}: valid on this frame; no countermodel")
        return 0
    model, s, instance = countermodel_from_witness(frame, axiom, w)
    payload = {
        "axiom": axiom.value,
        "valid": False,
        "model": model_to_json(model),
        "state": frame.states[s],
        "formula": format_formula(instance),
        "holds_at_state": truth(model, s, instance),
        "property_witness": w.to_json(frame),
    }
    print(_dump(payload))
    return 1


def _ks_arg(text: str | None) -> tuple[int, ...]:
    if not text:
        return (2, 3, 4, 5, 7, 8)
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise _InputError(f"bad --ks value {text!r}") from exc


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        size=args.size,
        mode=args.mode,
        count=args.count,
        seed=args.seed,
        ks=_ks_arg(args.ks),
        allow_large=args.allow_large,
    )
    report = sweep(cfg, workers=args.workers)
    payload = report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(_dump(payload) + "\n")
        except OSError as exc:
            raise _InputError(f"cannot write {args.out}: {exc}") from exc
    if args.json:
        print(_dump(payload))
    else:
        print(f"frames: {report.totals['frames']}")
        print(f"discrepancies: {len(report.discrepancies)}")
        print(f"replay: {report.replay['falsified']}/{report.replay['attempted']} falsified")
        always = " ".join(f"{k}={v}" for k, v in report.always_valid.items())
        print(f"always_valid: {always}")
        for name, cells in report.per_axiom.items():
            print(
                f"{name}: pp={cells['pp']} pf={cells['pf']} "
                f"fp={cells['fp']} ff={cells['ff']}"
            )
        for entry in report.discrepancies:
            print(f"discrepancy: {json.dumps(entry, sort_keys=True)}")
        print(f"duration_ms: {report.duration_ms}")
    return 1 if report.discrepancies else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    top = argparse.ArgumentParser(
        prog="kripkelewis",
        description="Belief-revision workbench over finite Kripke-Lewis frames.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    def add_frame_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--frame", help="frame JSON file")
        source.add_argument(
            "--code",
            metavar="N:CODE",
            help=f"frame digest as a sweep report prints it (N from 1 to {MAX_RANDOM_SIZE})",
        )

    p = add("parse", cmd_parse, help="parse a formula and report its class")
    p.add_argument("formula")

    p = add("eval", cmd_eval, help="evaluate a formula at a state of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True)

    p = add("frame-check", cmd_frame_check, help="check frame properties")
    add_frame_source(p)
    p.add_argument("--props", help="comma-separated subset of P2,P3,P4,P5,P7,P8")

    p = add("axiom-check", cmd_axiom_check, help="check an axiom schema or rule on a frame")
    add_frame_source(p)
    p.add_argument("--axiom", required=True)

    p = add("agm-check", cmd_agm_check, help="check the revision postulates at each state")
    add_frame_source(p)
    p.add_argument("--state")

    p = add("revise", cmd_revise, help="membership of a query in a revised belief set")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--query", required=True)

    p = add("countermodel", cmd_countermodel, help="build the canonical countermodel for an axiom")
    add_frame_source(p)
    p.add_argument("--axiom", required=True)

    p = add("sweep", cmd_sweep, help="run the correspondence sweep over many frames")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ks", help="comma-separated subset of 2,3,4,5,7,8")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--allow-large", action="store_true")

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrameValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    except (_InputError, ValueError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

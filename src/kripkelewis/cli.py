"""Command-line interface.

Exit status: 0 when the command succeeded and every requested check holds,
1 when a check failed (a witness is printed), 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

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
from .properties import PropertyEvaluator, PropertyId, check_property
from .revision import AgmPostulateId, PostulateEvaluator, revise_membership
from .revision import agm_event_check  # noqa: F401  unused; perfbench's tracer patches it by name
from .correspondence import (
    DEFAULT_KS,
    MAX_CODE_SIZE,
    MODES,
    SweepConfig,
    SweepError,
    frame_count,
    frame_from_code,
    sweep,
)


class _InputError(Exception):
    pass


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for str-keyed dicts:
    with ``indent`` set the stdlib runs its pure-Python encoder; here only the layout is Python."""
    parts = []
    _lay_out(obj, "\n", parts)
    return "".join(parts)


def _lay_out(obj, newline: str, parts: list) -> None:
    if isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(obj):
            parts.append(f"{opener}{_encode_str(key)}: ")
            _lay_out(obj[key], inner, parts)
            opener = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        opener = "[" + inner
        for item in obj:
            parts.append(opener)
            _lay_out(item, inner, parts)
            opener = "," + inner
        parts.append(newline + "]")
    elif obj is True or obj is False:
        parts.append("true" if obj else "false")
    else:
        parts.append(json.dumps(obj))


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
    states s0 ... s{n-1}.  An error line echoes at most the first 30
    characters of the value and names the bound rather than printing it."""
    shown = repr(text if len(text) <= 30 else text[:30] + "...")
    n_text, _, code_text = text.partition(":")
    if not (n_text.isascii() and n_text.isdigit() and code_text.isascii() and code_text.isdigit()):
        raise _InputError(f"bad --code value {shown} (expected n:code, two decimal integers)")
    # the guards count the digits past any leading zeros, so every code
    # they pass has fewer digits than int()'s default limit on a string
    n_text, code_text = n_text.lstrip("0") or "0", code_text.lstrip("0") or "0"
    n = int(n_text) if len(n_text) < 5 else 0  # a longer one is out of range, unparsed
    if not 1 <= n <= MAX_CODE_SIZE:
        raise _InputError(f"--code {shown}: state count must be 1 to {MAX_CODE_SIZE}")
    count = frame_count(n)
    if len(code_text) > len(str(count)) or not int(code_text) < count:
        raise _InputError(f"--code {shown}: code must be below frame_count({n}) for {n} states")
    return frame_from_code(n, int(code_text))


def _model_arg(args):
    """The model of ``--model`` and the index of ``--state`` in it."""
    model = load_model(_read_json(args.model))
    return model, _state_arg(model.frame, args.state)


def _state_arg(container, name: str) -> int:
    try:
        return container.state_index(name)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from exc  # str() of a KeyError is the repr of its message


def _emit(args, payload, lines) -> None:
    """Print ``payload()`` as JSON under ``--json``, else each of ``lines()``;
    both are thunks, so only the printed side is built."""
    if args.json:
        print(_dump(payload()))
    else:
        for line in lines():
            print(line)


def _outcome(key: str, w, frame) -> dict:
    """``{key: True}`` when the check found no witness ``w``, else
    ``{key: False, "witness": ...}``."""
    return {key: True} if w is None else {key: False, "witness": w.to_json(frame)}


def _verdict(label: str, key: str, outcome: dict) -> str:
    """The text line of an ``_outcome``: ``label: key`` when it holds."""
    if outcome[key]:
        return f"{label}: {key}"
    return f"{label}: FAIL {json.dumps(outcome['witness'], sort_keys=True)}"


def _id_arg(kind, what: str, text: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise _InputError(f"unknown {what} {text!r}") from exc


def cmd_parse(args) -> int:
    f = parse(args.formula)
    _emit(args, lambda: {"ast": repr(f), "class": classify(f).value, "formula": format_formula(f)},
          lambda: (f"formula: {format_formula(f)}", f"class: {classify(f).value}", f"ast: {f!r}"))
    return 0


def cmd_eval(args) -> int:
    model, s = _model_arg(args)
    f = parse(args.formula)
    value = truth(model, s, f)
    _emit(args, lambda: {"formula": format_formula(f), "state": args.state, "value": value},
          lambda: ("true" if value else "false",))
    return 0


def cmd_frame_check(args) -> int:
    frame = _frame_arg(args)
    props = list(PropertyId)
    if args.props is not None:
        props = [_id_arg(PropertyId, "property", piece.strip()) for piece in args.props.split(",")]
    evaluator = PropertyEvaluator(frame)
    results = {p.value: _outcome("pass", evaluator.witness(p), frame) for p in props}
    _emit(args, lambda: {"results": results},
          lambda: (_verdict(name, "pass", res) for name, res in results.items()))
    return 0 if all(res["pass"] for res in results.values()) else 1


def cmd_axiom_check(args) -> int:
    frame = _frame_arg(args)
    axiom = _id_arg(AxiomId, "axiom", args.axiom)
    check = rule_valid_on_frame if axiom in RULE_IDS else schema_valid_on_frame
    outcome = _outcome("valid", check(frame, axiom), frame)
    _emit(args, lambda: {"axiom": axiom.value, **outcome},
          lambda: (_verdict(axiom.value, "valid", outcome),))
    return 0 if outcome["valid"] else 1


def cmd_agm_check(args) -> int:
    frame = _frame_arg(args)
    states = range(frame.n)
    if args.state is not None:
        states = [_state_arg(frame, args.state)]
    evaluator = PostulateEvaluator(frame)
    live = sum(1 << s for s in states)
    witnesses = [(p.value, evaluator.witnesses(p, live)) for p in AgmPostulateId]
    results = {
        frame.states[s]: {name: _outcome("holds", found[s], frame) for name, found in witnesses}
        for s in states
    }
    _emit(args, lambda: {"results": results},
          lambda: (_verdict(f"{state} {name}", "holds", res)
                   for state, per_state in results.items() for name, res in per_state.items()))
    return 0 if all(found[s] is None for _, found in witnesses for s in states) else 1


def cmd_revise(args) -> int:
    model, s = _model_arg(args)
    input_f = parse(args.input)
    query = parse(args.query)
    member = revise_membership(model, s, input_f, query)
    _emit(args, lambda: {"input": format_formula(input_f), "member": member,
                         "query": format_formula(query), "state": args.state},
          lambda: ("true" if member else "false",))
    return 0


def cmd_countermodel(args) -> int:
    frame = _frame_arg(args)
    axiom = _id_arg(AxiomId, "axiom", args.axiom)
    paired = PAIRED_PROPERTY.get(axiom)
    if paired is None:
        raise _InputError(f"{axiom.value} is valid on every frame; no countermodel exists")
    w = check_property(frame, paired)
    if w is None:
        _emit(args, lambda: {"axiom": axiom.value, "valid": True},
              lambda: (f"{axiom.value}: valid on this frame; no countermodel",))
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
    if text is None:
        return DEFAULT_KS
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise _InputError(f"bad --ks value {text!r}") from exc


def _sweep_lines(report):
    """The text report of a sweep, one line at a time."""
    yield f"frames: {report.totals['frames']}"
    yield f"discrepancies: {len(report.discrepancies)}"
    yield f"replay: {report.replay['falsified']}/{report.replay['attempted']} falsified"
    yield "always_valid: " + " ".join(f"{k}={v}" for k, v in report.always_valid.items())
    for name, cells in (*report.per_axiom.items(), *report.per_agm.items()):
        yield f"{name}: " + " ".join(f"{cell}={v}" for cell, v in cells.items())
    for entry in report.discrepancies:
        yield f"discrepancy: {json.dumps(entry, sort_keys=True)}"
    yield f"duration_ms: {report.duration_ms}"


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
    _emit(args, lambda: payload, lambda: _sweep_lines(report))
    return 1 if report.discrepancies else 0


def _subset_help(ids) -> str:
    return "comma-separated subset of " + ",".join(map(str, ids))


_REQUIRED = {"required": True}

# Each subcommand: name, handler, help, whether it reads a frame from
# --frame or --code, and its other arguments with their add_argument
# keywords.  Every subcommand also takes --json.
_COMMANDS = (
    ("parse", cmd_parse, "parse a formula and report its class", False, (("formula", {}),)),
    ("eval", cmd_eval, "evaluate a formula at a state of a model", False,
     (("--model", _REQUIRED), ("--state", _REQUIRED), ("--formula", _REQUIRED))),
    ("frame-check", cmd_frame_check, "check frame properties", True,
     (("--props", {"help": _subset_help(p.value for p in PropertyId)}),)),
    ("axiom-check", cmd_axiom_check, "check an axiom schema or rule on a frame", True,
     (("--axiom", _REQUIRED),)),
    ("agm-check", cmd_agm_check, "check the revision postulates at each state", True,
     (("--state", {}),)),
    ("revise", cmd_revise, "membership of a query in a revised belief set", False,
     (("--model", _REQUIRED), ("--state", _REQUIRED), ("--input", _REQUIRED),
      ("--query", _REQUIRED))),
    ("countermodel", cmd_countermodel, "build the canonical countermodel for an axiom", True,
     (("--axiom", _REQUIRED),)),
    ("sweep", cmd_sweep, "run the correspondence sweep over many frames", False, (
        ("--size", {"type": int, "required": True}),
        ("--mode", {"choices": MODES, "default": "exhaustive"}),
        ("--count", {"type": int}),
        ("--seed", {"type": int}),
        ("--ks", {"help": _subset_help(DEFAULT_KS)}),
        ("--workers", {"type": int, "default": 1}),
        ("--out", {"help": "write the JSON report to this path"}),
        ("--allow-large", {"action": "store_true"}),
    )),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    top = argparse.ArgumentParser(
        prog="kripkelewis",
        description="Belief-revision workbench over finite Kripke-Lewis frames.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, help_text, reads_frame, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        if reads_frame:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--frame", help="frame JSON file")
            source.add_argument(
                "--code",
                metavar="N:CODE",
                help=f"frame digest as a sweep report prints it (N from 1 to {MAX_CODE_SIZE})",
            )
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
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

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

from kripkelewis import (
    PostulateEvaluator,
    frame_count,
    frame_digest,
    frame_to_json,
    load_frame,
    load_model,
    parse,
    sample_frames,
    truth,
)
from kripkelewis.cli import build_parser, main
from kripkelewis.parser import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "B(p > p)")
    assert code == 0
    assert "PhiB" in out
    assert "B(p > p)" in out


def test_parse_command_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "B(p > p)")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "ast": "Bel(Cond(Atom('p'), Atom('p')))",
        "class": "PhiB",
        "formula": "B(p > p)",
    }


def test_parse_command_rejects_bad_input(capsys):
    code, _, err = run(capsys, "parse", "p > (q > r)")
    assert code == 2
    assert "Boolean" in err


def test_eval_command_vacuous_conditional(capsys, m0_path):
    code, out, _ = run(
        capsys, "eval", "--model", m0_path, "--state", "s0", "--formula", "p > q"
    )
    assert code == 0
    assert out.strip() == "true"


def test_eval_command_unknown_state(capsys, m0_path):
    code, _, err = run(
        capsys, "eval", "--model", m0_path, "--state", "s9", "--formula", "p"
    )
    assert code == 2
    assert "s9" in err


def test_frame_check_fx2_p2(capsys, fx2_path):
    code, out, _ = run(capsys, "frame-check", "--frame", fx2_path, "--props", "P2")
    assert code == 1
    assert "P2: FAIL" in out
    assert '"s_prime": "s1"' in out


def test_frame_check_json_all_properties(capsys, m0_path):
    code, out, _ = run(capsys, "frame-check", "--frame", m0_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["results"]) == {"P2", "P3", "P4", "P5", "P7", "P8"}
    assert all(entry["pass"] for entry in payload["results"].values())


def test_frame_check_unknown_property(capsys, m0_path):
    code, _, err = run(capsys, "frame-check", "--frame", m0_path, "--props", "P6")
    assert code == 2
    assert "P6" in err


def test_frame_check_empty_props_is_an_input_error(capsys, m0_path):
    # an empty list names no property; it does not mean all six
    code, out, err = run(capsys, "frame-check", "--frame", m0_path, "--props", "")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_axiom_check(capsys, m0_path, fx2_path):
    code, out, _ = run(capsys, "axiom-check", "--frame", m0_path, "--axiom", "A2")
    assert code == 0
    assert "valid" in out
    code, out, _ = run(capsys, "axiom-check", "--frame", fx2_path, "--axiom", "A2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["witness"]["events"] == {"p": ["s0"]}
    code, out, _ = run(capsys, "axiom-check", "--frame", fx2_path, "--axiom", "RuleK6")
    assert code == 0


def test_agm_check(capsys, fx2_path):
    code, out, _ = run(capsys, "agm-check", "--frame", fx2_path, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["s0"]["K2"]["holds"] is False
    assert payload["results"]["s0"]["K1"]["holds"] is True
    code, out, _ = run(capsys, "agm-check", "--frame", fx2_path, "--state", "s1")
    assert code == 1
    assert "s1 K2: FAIL" in out


def test_revise_command(capsys, fx2_path):
    code, out, _ = run(
        capsys, "revise", "--model", fx2_path, "--state", "s0",
        "--input", "p", "--query", "p",
    )
    assert code == 0
    assert out.strip() == "false"


def test_countermodel_command(capsys, fx2_path, m0_path):
    code, out, _ = run(capsys, "countermodel", "--frame", fx2_path, "--axiom", "A2")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["holds_at_state"] is False
    assert payload["state"] == "s0"
    assert payload["formula"] == "B(p > p)"
    # the emitted model really falsifies the formula
    model = load_model(payload["model"])
    s = model.frame.state_index(payload["state"])
    assert truth(model, s, parse(payload["formula"])) is False

    code, out, _ = run(capsys, "countermodel", "--frame", m0_path, "--axiom", "A2")
    assert code == 0
    assert "valid" in out

    code, _, err = run(capsys, "countermodel", "--frame", m0_path, "--axiom", "A1")
    assert code == 2
    assert "valid on every frame" in err


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "sweep", "--size", "2", "--mode", "random", "--count", "200",
        "--seed", "5", "--ks", "2,5", "--out", str(out_path),
    )
    assert code == 0
    assert "frames: 200" in out
    assert "discrepancies: 0" in out
    written = json.loads(out_path.read_text())
    assert written["totals"]["frames"] == 200
    assert written["discrepancies"] == []
    assert set(written["per_axiom"]) == {"P2", "P5"}


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_sweep_out_that_cannot_be_written_is_one_error_line(capsys, tmp_path, target):
    path = tmp_path / target
    for extra in ([], ["--json"]):
        code, out, err = run(
            capsys, "sweep", "--size", "1", "--out", str(path), *extra,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


def test_sweep_command_requires_seed_in_random_mode(capsys):
    code, _, err = run(capsys, "sweep", "--size", "2", "--mode", "random", "--count", "10")
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("argv", [("--seed", "3"), ("--count", "-3"), ("--count", "5")])
def test_sweep_command_refuses_seed_and_count_in_exhaustive_mode(capsys, argv):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "sweep", "--size", "1", *argv, *extra)
        assert code == 2
        assert out == ""
        assert err == "error: exhaustive mode takes no count or seed\n"


def test_sweep_command_refuses_large_exhaustive(capsys):
    code, _, err = run(capsys, "sweep", "--size", "3")
    assert code == 2
    assert "--mode random" in err
    code, out, err = run(capsys, "sweep", "--size", "3", "--allow-large")
    assert (code, out) == (2, "")
    assert err.startswith("error: exhaustive mode cannot finish past two states")
    assert err.count("\n") == 1
    assert "--mode random" in err


def test_sweep_command_refuses_five_state_random_mode(capsys):
    code, out, err = run(
        capsys, "sweep", "--size", "5", "--mode", "random", "--count", "1", "--seed", "0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: random mode for size >= 5 requires allow_large")
    assert "Traceback" not in err

    code, out, _ = run(
        capsys, "sweep", "--size", "5", "--mode", "random", "--count", "1", "--seed", "0",
        "--ks", "2", "--allow-large",
    )
    assert code == 0
    assert "frames: 1" in out


@pytest.mark.parametrize("argv", [
    ("--ks", "2,2"), ("--ks", "5,2,5"), ("--workers", "0"), ("--workers", "-3"), ("--ks", ""),
])
def test_sweep_command_refuses_repeated_ks_and_no_workers(capsys, argv):
    code, out, err = run(capsys, "sweep", "--size", "2", "--json", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_agm_check_restricted_state_equals_full_run(capsys, monkeypatch, fx2_path):
    # --state prints the same lines for that state as a run over every
    # state, and the postulate scans look at that state alone
    _, full, _ = run(capsys, "agm-check", "--frame", fx2_path)
    real, scanned = PostulateEvaluator.witnesses, set()
    monkeypatch.setattr(PostulateEvaluator, "witnesses",
                        lambda self, k, live=None: scanned.add(live) or real(self, k, live))
    for s, state in enumerate(("s0", "s1")):
        scanned.clear()
        code, out, _ = run(capsys, "agm-check", "--frame", fx2_path, "--state", state)
        assert code == 1
        assert out.splitlines() == [line for line in full.splitlines()
                                    if line.startswith(state + " ")]
        assert scanned == {1 << s}, state


def test_json_outputs_are_byte_stable(capsys, fx2_path):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "frame-check", "--frame", fx2_path, "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "sweep", "--size", "2", "--mode", "random", "--count", "50",
            "--seed", "6", "--json",
        )
        payload = json.loads(out)
        payload.pop("duration_ms")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "eval", "--model", "no-such.json", "--state", "s0", "--formula", "p")
    assert code == 2
    assert "cannot read" in err


def test_invalid_frame_reports_issues(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["s0", "s1"],
        "belief": {"s0": ["s0"]},
        "selection": [],
    }))
    code, _, err = run(capsys, "frame-check", "--frame", str(bad))
    assert code == 2
    assert "non_serial" in err
    assert "missing_selection_entry" in err


def test_parser_built_once(capsys, m0_path):
    assert build_parser() is build_parser()
    first = run(capsys, "axiom-check", "--frame", m0_path, "--axiom", "RuleK5a")
    assert run(capsys, "axiom-check", "--frame", m0_path, "--axiom", "RuleK5a") == first
    assert first[0] == 0


def _good_frame() -> dict:
    return {
        "states": ["a", "b"],
        "belief": {"a": ["b"], "b": ["b"]},
        "selection": [
            {"state": s, "event": e, "selected": e}
            for s in ("a", "b") for e in (["a"], ["b"], ["a", "b"])
        ],
        "valuation": {"p": ["a"]},
    }


def _run_on(capsys, tmp_path, data, command="frame-check"):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "eval":
        return run(capsys, "eval", "--model", str(path), "--state", "a", "--formula", "p")
    return run(capsys, command, "--frame", str(path))


def _broken_frames() -> list[dict]:
    """``_good_frame`` broken once for each frame issue kind."""
    frames = [_good_frame() for _ in range(6)]
    frames[0]["belief"]["a"] = []  # non_serial
    frames[1]["selection"].pop()  # missing_selection_entry
    frames[2]["selection"][0]["selected"] = ["a", "zz"]  # unknown_state
    frames[3]["selection"].append({"state": "a", "event": [], "selected": []})  # empty_event
    frames[4]["selection"].append(frames[4]["selection"][0])  # duplicate_selection_entry
    frames[5]["states"] = ["a", "a"]  # bad_structure
    return frames


def test_rule_check_loads_its_frame_before_the_constant(capsys, tmp_path):
    # a rule holds on every frame, but a malformed frame is still an input
    # error, reported as a schema check reports it
    sources = [("--code", "2:36864"), ("--code", "9:0"), ("--frame", str(tmp_path / "none.json"))]
    for i, data in enumerate(_broken_frames()):
        path = tmp_path / f"broken{i}.json"
        path.write_text(json.dumps(data))
        sources.append(("--frame", str(path)))
    for source in sources:
        code, out, err = run(capsys, "axiom-check", "--axiom", "A2", *source)
        assert (code, out) == (2, "") and err.startswith("error: "), (source, err)
        for rule in ("RuleK5a", "RuleK6"):
            assert run(capsys, "axiom-check", "--axiom", rule, *source) == (2, "", err), source


def test_good_frame_is_accepted(capsys, tmp_path):
    code, out, _ = _run_on(capsys, tmp_path, _good_frame(), "eval")
    assert code == 0
    assert out.strip() == "true"


def test_top_level_array_is_bad_structure(capsys, tmp_path):
    code, _, err = _run_on(capsys, tmp_path, [_good_frame()])
    assert code == 2
    assert "error: bad_structure:" in err


def test_belief_as_list_is_bad_structure(capsys, tmp_path):
    data = _good_frame()
    data["belief"] = [["b"], ["b"]]
    code, _, err = _run_on(capsys, tmp_path, data, "agm-check")
    assert code == 2
    assert "error: bad_structure: 'belief' must be an object" in err


def test_selection_entry_not_an_object_is_bad_structure(capsys, tmp_path):
    data = _good_frame()
    data["selection"][0] = ["a", ["a"], ["a"]]
    code, _, err = _run_on(capsys, tmp_path, data)
    assert code == 2
    assert "error: bad_structure: 'selection' must be a list of objects" in err


def test_string_event_is_bad_structure(capsys, tmp_path):
    data = _good_frame()
    data["selection"][0]["event"] = "a"
    code, _, err = _run_on(capsys, tmp_path, data)
    assert code == 2
    assert "error: bad_structure: selection event for a must be a list of state names" in err


def test_string_belief_members_are_bad_structure(capsys, tmp_path):
    data = _good_frame()
    data["belief"]["a"] = "b"
    code, _, err = _run_on(capsys, tmp_path, data)
    assert code == 2
    assert "error: bad_structure: belief[a] must be a list of state names" in err


def test_string_valuation_members_are_bad_structure(capsys, tmp_path):
    data = _good_frame()
    data["valuation"]["p"] = "a"
    code, _, err = _run_on(capsys, tmp_path, data, "eval")
    assert code == 2
    assert "error: bad_structure: valuation of 'p' must be a list of state names" in err


def test_non_string_state_name_is_bad_structure(capsys, tmp_path):
    data = {
        "states": [None],
        "belief": {"None": ["None"]},
        "selection": [{"state": "None", "event": ["None"], "selected": ["None"]}],
    }
    code, _, err = _run_on(capsys, tmp_path, data)
    assert code == 2
    assert err == "error: bad_structure: state names must be strings\n"


def test_many_states_with_short_selection_is_one_issue(capsys, tmp_path):
    names = [f"s{i}" for i in range(64)]
    data = {
        "states": names,
        "belief": {name: [name] for name in names},
        "selection": [{"state": "s0", "event": ["s0"], "selected": ["s0"]}],
    }
    code, _, err = _run_on(capsys, tmp_path, data)
    assert code == 2
    assert err == (
        "error: missing_selection_entry: 1 selection entries given, "
        f"64 states need {64 * (2**64 - 1)}\n"
    )


def test_deep_nesting_is_a_parse_error(capsys):
    code, out, _ = run(capsys, "parse", "~" * MAX_NESTING + "p")
    assert code == 0
    assert out.startswith("formula: ")
    for text in ("~" * 5000 + "p", "(" * 5000 + "p" + ")" * 5000, " & ".join(["p"] * 5000)):
        code, _, err = run(capsys, "parse", text)
        assert code == 2
        assert f"expected at most {MAX_NESTING} levels of nesting" in err


FRAME_COMMANDS = [
    ("frame-check",),
    ("frame-check", "--json", "--props", "P4,P8"),
    ("agm-check",),
    ("agm-check", "--json", "--state", "s1"),
    *[("axiom-check", "--axiom", k) for k in ("A1", "A2", "A3", "A4", "A5", "A7", "A8", "RuleK6")],
    ("axiom-check", "--json", "--axiom", "A8"),
    *[("countermodel", "--axiom", k) for k in ("A2", "A3", "A4", "A5", "A7", "A8")],
    ("countermodel", "--json", "--axiom", "A8"),
]


def test_code_source_equals_frame_file(capsys, tmp_path, fx2_path):
    with open(fx2_path, encoding="utf-8") as handle:
        fixture_digest = frame_digest(load_frame(json.load(handle)))
    cases = [(fixture_digest, fx2_path)]
    # a sampled three-state frame, and a five-state one as random sweeps with
    # allow_large print it
    for n in (3, 5):
        frame = next(sample_frames(n, 1, seed=42))
        sampled_path = tmp_path / f"sampled{n}.json"
        sampled_path.write_text(json.dumps(frame_to_json(frame)))
        cases.append((frame_digest(frame), str(sampled_path)))
    for digest, path in cases:
        for argv in FRAME_COMMANDS:
            by_code = run(capsys, *argv, "--code", digest)
            assert by_code == run(capsys, *argv, "--frame", path), (digest, argv)
            assert by_code[0] in (0, 1)


@pytest.mark.parametrize("value", [
    "2:0005", "2:0000000000000000005", "00002:5", "2:" + "0" * 5000 + "5",
], ids=["3-zeros", "18-zeros", "zero-padded-n", "5000-zeros"])
def test_code_with_leading_zeros_is_the_same_frame(capsys, value):
    for argv in (("frame-check",), ("axiom-check", "--axiom", "A4")):
        assert run(capsys, *argv, "--code", value) == run(capsys, *argv, "--code", "2:5"), argv


@pytest.mark.parametrize("value", [
    "2", "x:1", "2:abc", "2:-1", "-2:1", "2:+1", "2: 1", "2:1_0", "2:1:3", ":5", "2:",
    "0:0", "8:0", "99999:0", "2:36864", "4:" + "9" * 5000, "\uff12:1",
])
def test_bad_code_is_one_error_line(capsys, value):
    code, out, err = run(capsys, "axiom-check", "--axiom", "A1", f"--code={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", [
    "7:" + "9" * 1889, "4:" + "9" * 5000, "x" * 3000, "9" * 5000 + ":0", "\U0001f600" * 3000,
    "0" * 5000 + ":5", "2:" + "0" * 5000 + "36864", "4:" + "0" * 5000 + "9" * 5000,
], ids=["7-past-range", "4-5000-nines", "3000-letters", "5000-digit-n", "3000-emoji",
        "5000-zero-n", "zero-padded-past-range", "zero-padded-5000-nines"])
def test_long_bad_code_is_one_short_error_line(capsys, value):
    # the value is cut and the bound named, so the line stays short
    code, out, err = run(capsys, "frame-check", f"--code={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err


def test_large_sweep_sizes_are_refused_at_once():
    # the refusal names its bound instead of computing it: at these sizes
    # frame_count(n) has thousands to millions of digits
    argvs = [["--size", str(n)] for n in (7, 8, 20, 22, 24, 40)]
    argvs.append(["--mode", "random", "--count", "1", "--seed", "1", "--size", "2000000000"])
    # past 7 states no sweep runs, in either mode: allow_large lifts no bound there
    sampled = ["--mode", "random", "--count", "1", "--seed", "1"]
    argvs += [[*mode, "--size", str(n), "--allow-large"] for mode in ([], sampled) for n in (8, 40)]
    # exhaustive mode cannot finish past two states, with --allow-large too
    argvs += [["--size", str(n), "--allow-large"] for n in (3, 4, 7)]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    runs = [subprocess.Popen([sys.executable, "-m", "kripkelewis.cli", "sweep", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in argvs]
    try:
        for argv, proc in zip(argvs, runs):
            out, err = proc.communicate(timeout=20)
            assert proc.returncode == 2 and out == b"", (argv, err)
            assert err.startswith(b"error: ") and err.count(b"\n") == 1, (argv, err)
            assert len(err) < 200 and b"Traceback" not in err, (argv, err)
    finally:
        for proc in runs:
            proc.kill()
            proc.wait()


def test_oversized_random_count_is_refused_before_any_fork(capsys, monkeypatch):
    # a count past sys.maxsize is refused by its bound, not reported as a
    # failed partition after workers have started
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 0)
    for workers in ("1", "3"):
        status, out, err = run(capsys, "sweep", "--size", "2", "--mode", "random", "--count",
                               "99999999999999999999", "--seed", "1", "--workers", workers)
        assert status == 2 and out == "", (workers, err)
        assert err == f"error: random mode takes count at most {sys.maxsize} (sys.maxsize)\n"
    assert forks == []


def test_negative_seed_is_refused_before_any_fork(capsys, monkeypatch):
    # random.Random seeds by |seed|, so -7 would report the frames of 7
    # under another config.seed
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 0)
    for seed in ("-1", "-7"):
        for workers in ("1", "3"):
            status, out, err = run(capsys, "sweep", "--size", "3", "--mode", "random", "--count",
                                   "200", "--seed", seed, "--workers", workers)
            assert status == 2 and out == "", (seed, workers, err)
            assert err == f"error: random mode requires a seed >= 0, got {seed}\n"
    assert forks == []


def test_code_takes_up_to_seven_states(capsys):
    # the largest state count whose codes stay under int()'s digit limit
    for n in (5, 6, 7):
        for code in (0, frame_count(n) - 1):
            status, out, err = run(capsys, "frame-check", "--code", f"{n}:{code}")
            assert status in (0, 1) and out and not err, (n, code)


def test_frame_and_code_are_exclusive(capsys, m0_path):
    for argv in (["--frame", m0_path, "--code", "1:0"], []):
        with pytest.raises(SystemExit) as exc:
            main(["frame-check", *argv])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_deeply_nested_json_is_bad_structure(capsys, tmp_path):
    for text in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        path = tmp_path / "deep.json"
        path.write_text(text)
        for argv in (["frame-check", "--frame", str(path)],
                     ["eval", "--model", str(path), "--state", "s0", "--formula", "p"]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err == f"error: bad_structure: {path} nests JSON too deeply to read\n"


def test_undecodable_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "frame-check", "--frame", str(path))
    assert code == 2
    assert err.startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize("valuation", [None, [], 0, "", False])
def test_falsy_non_object_valuation_is_bad_structure(capsys, tmp_path, valuation):
    data = _good_frame()
    data["valuation"] = valuation
    code, _, err = _run_on(capsys, tmp_path, data, "eval")
    assert code == 2
    assert err == "error: bad_structure: 'valuation' must be an object\n"


_FRAME = {"frame": "f.json", "code": None}
_NO_FRAME = {"frame": None, "code": None}
_SWEEP = {"size": 2, "mode": "exhaustive", "count": None, "seed": None, "ks": None,
          "workers": 1, "out": None, "allow_large": False}

PARSED = [
    (["parse", "p"], "cmd_parse", {"formula": "p"}),
    (["parse", "--json", "B(p > q)"], "cmd_parse", {"json": True, "formula": "B(p > q)"}),
    (["eval", "--model", "m.json", "--state", "s0", "--formula", "p"], "cmd_eval",
     {"model": "m.json", "state": "s0", "formula": "p"}),
    (["frame-check", "--frame", "f.json"], "cmd_frame_check", {**_FRAME, "props": None}),
    (["frame-check", "--code", "2:5", "--props", "P2,P7", "--json"], "cmd_frame_check",
     {**_NO_FRAME, "code": "2:5", "props": "P2,P7", "json": True}),
    (["axiom-check", "--frame", "f.json", "--axiom", "A1"], "cmd_axiom_check",
     {**_FRAME, "axiom": "A1"}),
    (["agm-check", "--code", "1:0"], "cmd_agm_check",
     {**_NO_FRAME, "code": "1:0", "state": None}),
    (["agm-check", "--code", "1:0", "--state", "s0"], "cmd_agm_check",
     {**_NO_FRAME, "code": "1:0", "state": "s0"}),
    (["revise", "--model", "m.json", "--state", "s0", "--input", "p", "--query", "q", "--json"],
     "cmd_revise", {"model": "m.json", "state": "s0", "input": "p", "query": "q", "json": True}),
    (["countermodel", "--frame", "f.json", "--axiom", "A4"], "cmd_countermodel",
     {**_FRAME, "axiom": "A4"}),
    (["sweep", "--size", "2"], "cmd_sweep", _SWEEP),
    (["sweep", "--size", "3", "--mode", "random", "--count", "10", "--seed", "7", "--ks", "2,4",
      "--workers", "2", "--out", "r.json", "--allow-large", "--json"], "cmd_sweep",
     {"size": 3, "mode": "random", "count": 10, "seed": 7, "ks": "2,4", "workers": 2,
      "out": "r.json", "allow_large": True, "json": True}),
]


@pytest.mark.parametrize("argv, func, expected", PARSED, ids=[" ".join(row[0]) for row in PARSED])
def test_parser_fills_every_dest(argv, func, expected):
    # Pins dests, defaults and types without the --help text, whose bytes
    # differ between Python versions.
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func").__name__ == func
    assert parsed == {"command": argv[0], "json": False, **expected}


@pytest.mark.parametrize("argv", [
    [],
    ["eval", "--model", "m.json", "--state", "s0"],
    ["frame-check", "--frame", "f.json", "--code", "1:0"],
    ["sweep", "--size", "x"],
    ["sweep", "--size", "2", "--mode", "z"],
    ["check", "--frame", "f.json"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kripkelewis")

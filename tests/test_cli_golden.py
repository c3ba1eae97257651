"""Byte-level goldens of the CLI.

Each row of ``GOLDEN`` is an argv, its exit code, and the first 16 hex
digits of the sha256 of its stdout and of its stderr.  The rows cover every
command on ``fixtures/fx2.json`` and ``fixtures/m0.json``, ``--code`` frames
on one to four states (uniform draws, which fail early, and ranked frames,
on which every check scans to the end), text and ``--json`` output, and a
malformed file per ``FrameIssue`` kind.  ``sweep`` appears there only with
input errors, because its report carries a wall time; ``SWEEP_GOLDEN`` digests
sweep reports, text and ``--json``, with the ``duration_ms`` line removed.

An argument starting with ``@`` names a file: ``@fx2`` and ``@m0`` are the
fixtures, any other is a ``MALFORMED`` entry written to a temporary
directory.  No output names a path, so the digests do not depend on where
the files live.  A row changes only with an intended change of output.
"""

import hashlib
import json
import shlex

import pytest

from conftest import REPO_ROOT
from kripkelewis import FrameValidationError, load_model
from kripkelewis import cli
from kripkelewis.cli import main


_FX2_SELECTION = [
    {"state": state, "event": event, "selected": selected}
    for state, event, selected in (
        ("s0", ["s0"], ["s0"]), ("s0", ["s1"], ["s1"]), ("s0", ["s0", "s1"], ["s0", "s1"]),
        ("s1", ["s0"], ["s1"]), ("s1", ["s1"], ["s1"]), ("s1", ["s0", "s1"], ["s0", "s1"]),
    )
]


def _fx2(**changes) -> dict:
    data = {
        "states": ["s0", "s1"],
        "belief": {"s0": ["s1"], "s1": ["s1"]},
        "selection": [dict(entry) for entry in _FX2_SELECTION],
        "valuation": {"p": ["s0"]},
    }
    data.update(changes)
    return data


def _with_entry(i, **changes) -> list:
    selection = [dict(entry) for entry in _FX2_SELECTION]
    selection[i].update(changes)
    return selection


_ELEVEN = [f"s{i}" for i in range(11)]

MALFORMED = {
    "non-serial": _fx2(belief={"s0": ["s1"], "s1": []}),
    "belief-missing-state": _fx2(belief={"s1": ["s1"]}),
    "missing-entry": _fx2(selection=_FX2_SELECTION[:2] + _FX2_SELECTION[3:]),
    "missing-summary": {
        "states": _ELEVEN,
        "belief": {name: [name] for name in _ELEVEN},
        "selection": [{"state": "s0", "event": ["s0"], "selected": ["s0"]}],
    },
    "unknown-belief-key": _fx2(belief={"s0": ["s1"], "s1": ["s1"], "s7": ["s1"]}),
    "unknown-belief-member": _fx2(belief={"s0": ["s1", "x", 3], "s1": ["s1"]}),
    "unknown-selection-state": _fx2(selection=_with_entry(4, state="zz")),
    "non-string-selection-state": _fx2(selection=_with_entry(4, state=7)),
    "unknown-event-member": _fx2(selection=_with_entry(1, event=["s1", "q"])),
    "unknown-selected-member": _fx2(selection=_with_entry(5, selected=["s0", None])),
    "unhashable-member": _fx2(selection=_with_entry(2, event=[["s0"]], selected=[{}])),
    "unknown-valuation-state": _fx2(valuation={"p": ["s9"]}),
    "empty-event": _fx2(selection=_with_entry(0, event=[])),
    "duplicate-entry": _fx2(selection=_FX2_SELECTION + [dict(_FX2_SELECTION[3])]),
    "duplicate-entry-reordered": _fx2(
        selection=_FX2_SELECTION + [{"state": "s1", "event": ["s1", "s0"], "selected": []}]),
    "invalid-atom": _fx2(valuation={"P": ["s0"], "q1": ["s1"]}),
    "top-level-array": [_fx2()],
    "states-not-a-list": _fx2(states="s0"),
    "empty-states": _fx2(states=[]),
    "duplicate-state-names": _fx2(states=["s0", "s0"]),
    "non-string-state-name": _fx2(states=["s0", 1]),
    "belief-not-an-object": _fx2(belief=[["s1"], ["s1"]]),
    "selection-not-a-list": _fx2(selection={"state": "s0"}),
    "selection-entry-not-an-object": _fx2(selection=_FX2_SELECTION[:5] + [["s1"]]),
    "string-event": _fx2(selection=_with_entry(2, event="s0")),
    "string-belief-members": _fx2(belief={"s0": "s1", "s1": ["s1"]}),
    "valuation-not-an-object": _fx2(valuation=["p"]),
    "string-valuation-members": _fx2(valuation={"p": "s0"}),
    "many-issues": {
        "states": ["a", "b", "c"],
        "belief": {"a": ["b", "d"], "e": ["a"], "c": ["c"]},
        "selection": [
            {"state": "a", "event": ["a"], "selected": ["a"]},
            {"state": "d", "event": ["a"], "selected": ["a"]},
            {"state": "b", "event": ["a", "x"], "selected": ["y"]},
            {"state": "b", "event": [], "selected": ["b"]},
            {"state": "a", "event": ["a"], "selected": ["b"]},
            {"state": "c", "event": "abc", "selected": ["c"]},
            {"state": "c", "event": ["c", "b"], "selected": ["c"]},
        ],
        "valuation": {"p": ["a"], "Q": ["b"]},
    },
}

GOLDEN = {
    "parse 'B(p > q) & ~(r > s)'": (0, "c8c59eb67e982648", "e3b0c44298fc1c14"),
    "parse --json '[](p | ~q) & B(p > q)'": (0, "eb6de04993d0971e", "e3b0c44298fc1c14"),
    "parse 'p > (q > r)'": (2, "e3b0c44298fc1c14", "ae1d2a8effada1a8"),
    "frame-check --frame @fx2": (1, "617d6d8382427566", "e3b0c44298fc1c14"),
    "frame-check --json --frame @fx2": (1, "837a6c8f536f3e69", "e3b0c44298fc1c14"),
    "frame-check --props P2,P7 --frame @fx2": (1, "4a1abc05d970ae3e", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --frame @fx2": (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --axiom A2 --frame @fx2": (1, "9061d84faf369f77", "e3b0c44298fc1c14"),
    "axiom-check --axiom A3 --frame @fx2": (0, "713946ba477ba670", "e3b0c44298fc1c14"),
    "axiom-check --axiom A4 --frame @fx2": (1, "f6c46fd9e44319be", "e3b0c44298fc1c14"),
    "axiom-check --axiom A5 --frame @fx2": (0, "c0079dec9980f921", "e3b0c44298fc1c14"),
    "axiom-check --axiom A7 --frame @fx2": (1, "855610a8b3a4edb8", "e3b0c44298fc1c14"),
    "axiom-check --axiom A8 --frame @fx2": (1, "489a5c6f28ac4b61", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK5a --frame @fx2": (0, "bd01596447746936", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --frame @fx2": (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --frame @fx2": (1, "00d38f90f08ff750", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --frame @fx2": (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "agm-check --frame @fx2": (1, "5ede444bd9d9bd8f", "e3b0c44298fc1c14"),
    "agm-check --json --frame @fx2": (1, "0d6e71be9b5de67a", "e3b0c44298fc1c14"),
    "agm-check --state s0 --frame @fx2": (1, "c0edbdb7a4b7163f", "e3b0c44298fc1c14"),
    "agm-check --state s9 --frame @fx2": (2, "e3b0c44298fc1c14", "2a88dde151703732"),
    "countermodel --axiom A2 --frame @fx2": (1, "1b3f7146a00ce983", "e3b0c44298fc1c14"),
    "countermodel --axiom A3 --frame @fx2": (0, "90437884e5706029", "e3b0c44298fc1c14"),
    "countermodel --axiom A4 --frame @fx2": (1, "b6ad56a3f5b22b32", "e3b0c44298fc1c14"),
    "countermodel --axiom A5 --frame @fx2": (0, "6b7012243510d3b1", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --frame @fx2": (1, "4b00542d6229070c", "e3b0c44298fc1c14"),
    "countermodel --axiom A8 --frame @fx2": (1, "77bcffb911cebc32", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --frame @fx2": (1, "b6ad56a3f5b22b32", "e3b0c44298fc1c14"),
    "countermodel --axiom A1 --frame @fx2": (2, "e3b0c44298fc1c14", "b0f77d05892cd4cd"),
    "frame-check --frame @m0": (0, "8779f1a9a0fd781f", "e3b0c44298fc1c14"),
    "frame-check --json --frame @m0": (0, "2009aa47aeb3994e", "e3b0c44298fc1c14"),
    "frame-check --props P2,P7 --frame @m0": (0, "b3ef832056c6dbda", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --frame @m0": (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --axiom A2 --frame @m0": (0, "17e6181ac275a243", "e3b0c44298fc1c14"),
    "axiom-check --axiom A3 --frame @m0": (0, "713946ba477ba670", "e3b0c44298fc1c14"),
    "axiom-check --axiom A4 --frame @m0": (0, "1e05cca93dab2327", "e3b0c44298fc1c14"),
    "axiom-check --axiom A5 --frame @m0": (0, "c0079dec9980f921", "e3b0c44298fc1c14"),
    "axiom-check --axiom A7 --frame @m0": (0, "96cf2f982bc4b2ef", "e3b0c44298fc1c14"),
    "axiom-check --axiom A8 --frame @m0": (0, "3571b7d21772efca", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK5a --frame @m0": (0, "bd01596447746936", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --frame @m0": (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --frame @m0": (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --frame @m0": (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "agm-check --frame @m0": (0, "29480706db65f0a3", "e3b0c44298fc1c14"),
    "agm-check --json --frame @m0": (0, "efd1725e4cff2f18", "e3b0c44298fc1c14"),
    "agm-check --state s0 --frame @m0": (0, "29480706db65f0a3", "e3b0c44298fc1c14"),
    "countermodel --axiom A2 --frame @m0": (0, "ba378d00e4d0f622", "e3b0c44298fc1c14"),
    "countermodel --axiom A3 --frame @m0": (0, "90437884e5706029", "e3b0c44298fc1c14"),
    "countermodel --axiom A4 --frame @m0": (0, "25f4279af931c0e5", "e3b0c44298fc1c14"),
    "countermodel --axiom A5 --frame @m0": (0, "6b7012243510d3b1", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --frame @m0": (0, "fd9865e0f3e691fe", "e3b0c44298fc1c14"),
    "countermodel --axiom A8 --frame @m0": (0, "5cd65829cd4b189d", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --frame @m0": (0, "4e9615137d8267e9", "e3b0c44298fc1c14"),
    "countermodel --axiom A1 --frame @m0": (2, "e3b0c44298fc1c14", "b0f77d05892cd4cd"),
    "eval --model @fx2 --state s0 --formula p": (0, "a17fcf0a2f50e2d4", "e3b0c44298fc1c14"),
    "eval --model @fx2 --json --state s0 --formula 'B(p > p)'":
        (0, "a16778337f24bc2c", "e3b0c44298fc1c14"),
    "eval --model @fx2 --state s0 --formula '(p > ~p) | B(p > q)'":
        (0, "2ed27c1421e6928d", "e3b0c44298fc1c14"),
    "eval --model @fx2 --state s9 --formula p": (2, "e3b0c44298fc1c14", "2a88dde151703732"),
    "revise --model @fx2 --state s0 --input p --query p":
        (0, "2ed27c1421e6928d", "e3b0c44298fc1c14"),
    "revise --model @fx2 --json --state s0 --input '~p | q' --query q":
        (0, "49bb0440d1b143f4", "e3b0c44298fc1c14"),
    "revise --model @fx2 --state s0 --input p --query 'B p'":
        (2, "e3b0c44298fc1c14", "82e7fc6df275cdee"),
    "eval --model @m0 --state s0 --formula p": (0, "2ed27c1421e6928d", "e3b0c44298fc1c14"),
    "eval --model @m0 --json --state s0 --formula 'B(p > p)'":
        (0, "92a517e0b43c0547", "e3b0c44298fc1c14"),
    "eval --model @m0 --state s0 --formula '(p > ~p) | B(p > q)'":
        (0, "a17fcf0a2f50e2d4", "e3b0c44298fc1c14"),
    "eval --model @m0 --state s9 --formula p": (2, "e3b0c44298fc1c14", "2a88dde151703732"),
    "revise --model @m0 --state s0 --input p --query p":
        (0, "a17fcf0a2f50e2d4", "e3b0c44298fc1c14"),
    "revise --model @m0 --json --state s0 --input '~p | q' --query q":
        (0, "49bb0440d1b143f4", "e3b0c44298fc1c14"),
    "revise --model @m0 --state s0 --input p --query 'B p'":
        (2, "e3b0c44298fc1c14", "82e7fc6df275cdee"),
    "frame-check --code 1:0": (1, "214a39c5915303e4", "e3b0c44298fc1c14"),
    "frame-check --json --code 1:0": (1, "44d607e5a4b626d1", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 1:0": (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 1:0": (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 1:0": (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 1:0": (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 1:0": (1, "a950f5657a069cc0", "e3b0c44298fc1c14"),
    "agm-check --json --code 1:0": (1, "5ebe1fc3bb339012", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 1:0": (0, "4e9615137d8267e9", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 1:0": (0, "fd9865e0f3e691fe", "e3b0c44298fc1c14"),
    "frame-check --code 2:14857": (1, "099f6d20f5c3a173", "e3b0c44298fc1c14"),
    "frame-check --json --code 2:14857": (1, "a9e5508f5b3d2da3", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 2:14857": (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 2:14857": (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 2:14857":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 2:14857": (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 2:14857": (1, "72204a1708bd55c6", "e3b0c44298fc1c14"),
    "agm-check --json --code 2:14857": (1, "9ac07ee11f2575de", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 2:14857": (1, "a24605e75b2bb6f1", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 2:14857": (1, "42597ee2d74795c6", "e3b0c44298fc1c14"),
    "frame-check --code 2:19930": (0, "8779f1a9a0fd781f", "e3b0c44298fc1c14"),
    "frame-check --json --code 2:19930": (0, "2009aa47aeb3994e", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 2:19930": (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 2:19930": (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 2:19930":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 2:19930": (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 2:19930": (0, "8c85dfd7b8dda9b3", "e3b0c44298fc1c14"),
    "agm-check --json --code 2:19930": (0, "1be1f7429df6ba65", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 2:19930": (0, "4e9615137d8267e9", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 2:19930": (0, "fd9865e0f3e691fe", "e3b0c44298fc1c14"),
    "frame-check --code 3:1788638641305620271077": (1, "5a76dfdc167bd3e1", "e3b0c44298fc1c14"),
    "frame-check --json --code 3:1788638641305620271077":
        (1, "f59961f89ca81ca5", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 3:1788638641305620271077":
        (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 3:1788638641305620271077":
        (1, "1dc0463ccf62b0a9", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 3:1788638641305620271077":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 3:1788638641305620271077":
        (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 3:1788638641305620271077": (1, "83492e926f0efd83", "e3b0c44298fc1c14"),
    "agm-check --json --code 3:1788638641305620271077":
        (1, "f1ed7448d3d3b35e", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 3:1788638641305620271077":
        (1, "dcd4433a1b3fdd1e", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 3:1788638641305620271077":
        (1, "7bf52e9852d3c19d", "e3b0c44298fc1c14"),
    "frame-check --code 3:1468600423798860869": (0, "8779f1a9a0fd781f", "e3b0c44298fc1c14"),
    "frame-check --json --code 3:1468600423798860869": (0, "2009aa47aeb3994e", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 3:1468600423798860869":
        (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 3:1468600423798860869":
        (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 3:1468600423798860869":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 3:1468600423798860869":
        (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 3:1468600423798860869": (0, "1ae8a7bc3ad402a4", "e3b0c44298fc1c14"),
    "agm-check --json --code 3:1468600423798860869": (0, "a3a35684e6425f5a", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 3:1468600423798860869":
        (0, "4e9615137d8267e9", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 3:1468600423798860869":
        (0, "fd9865e0f3e691fe", "e3b0c44298fc1c14"),
    "frame-check --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "4791e9993fd8eec8", "e3b0c44298fc1c14"),
    "frame-check --json --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "ec4f50f73843b966", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "1dc0463ccf62b0a9", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "3a4008afe6e5b4eb", "e3b0c44298fc1c14"),
    "agm-check --json --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "220d2417a405cff1", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "9515142ccb080b21", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 4:56437304706592586108826209804971372604604673041510323323608476996353397285724":
        (1, "2bcd18f36e7fbe02", "e3b0c44298fc1c14"),
    "frame-check --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "8779f1a9a0fd781f", "e3b0c44298fc1c14"),
    "frame-check --json --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "2009aa47aeb3994e", "e3b0c44298fc1c14"),
    "axiom-check --axiom A1 --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "33b6b6aacfaa1873", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom A8 --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "3347e57632cd1562", "e3b0c44298fc1c14"),
    "axiom-check --json --axiom RuleK5a --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "722b19a56c40f08a", "e3b0c44298fc1c14"),
    "axiom-check --axiom RuleK6 --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "e9c3b5bc9a9fd0d9", "e3b0c44298fc1c14"),
    "agm-check --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "bf28343077b81fc5", "e3b0c44298fc1c14"),
    "agm-check --json --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "4e60942dfa128bdb", "e3b0c44298fc1c14"),
    "countermodel --json --axiom A4 --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "4e9615137d8267e9", "e3b0c44298fc1c14"),
    "countermodel --axiom A7 --code 4:19167213320362535162409798972641920846513327300121455935150600184010038904409":
        (0, "fd9865e0f3e691fe", "e3b0c44298fc1c14"),
    "frame-check --frame @non-serial": (2, "e3b0c44298fc1c14", "e0857821354db0bb"),
    "frame-check --frame @belief-missing-state": (2, "e3b0c44298fc1c14", "b8d436df2eea1d50"),
    "frame-check --frame @missing-entry": (2, "e3b0c44298fc1c14", "a2fabe006d1d3435"),
    "frame-check --frame @missing-summary": (2, "e3b0c44298fc1c14", "5be211362f381f5a"),
    "frame-check --frame @unknown-belief-key": (2, "e3b0c44298fc1c14", "46cf7fffa5ba197c"),
    "frame-check --frame @unknown-belief-member": (2, "e3b0c44298fc1c14", "d9e46f515141b7de"),
    "frame-check --frame @unknown-selection-state": (2, "e3b0c44298fc1c14", "9f3fba8cbd8d4b90"),
    "frame-check --frame @non-string-selection-state": (2, "e3b0c44298fc1c14", "90b5f37a5efc466b"),
    "frame-check --frame @unknown-event-member": (2, "e3b0c44298fc1c14", "93e8e5a1487be6b1"),
    "frame-check --frame @unknown-selected-member": (2, "e3b0c44298fc1c14", "d2e5b13596279500"),
    "frame-check --frame @unhashable-member": (2, "e3b0c44298fc1c14", "5f0b28a6f5e8ce1b"),
    "frame-check --frame @unknown-valuation-state": (1, "617d6d8382427566", "e3b0c44298fc1c14"),
    "frame-check --frame @empty-event": (2, "e3b0c44298fc1c14", "cb3b90a1a5ebac37"),
    "frame-check --frame @duplicate-entry": (2, "e3b0c44298fc1c14", "b27c698058109bb5"),
    "frame-check --frame @duplicate-entry-reordered": (2, "e3b0c44298fc1c14", "b8d85bff95de47dd"),
    "frame-check --frame @invalid-atom": (1, "617d6d8382427566", "e3b0c44298fc1c14"),
    "frame-check --frame @top-level-array": (2, "e3b0c44298fc1c14", "16de3f679c923452"),
    "frame-check --frame @states-not-a-list": (2, "e3b0c44298fc1c14", "2420a9207e7b9a57"),
    "frame-check --frame @empty-states": (2, "e3b0c44298fc1c14", "2420a9207e7b9a57"),
    "frame-check --frame @duplicate-state-names": (2, "e3b0c44298fc1c14", "10b791a1f5eed580"),
    "frame-check --frame @non-string-state-name": (2, "e3b0c44298fc1c14", "7b7ca1a8b4fa32c2"),
    "frame-check --frame @belief-not-an-object": (2, "e3b0c44298fc1c14", "4b7ee4af52d5b0fa"),
    "frame-check --frame @selection-not-a-list": (2, "e3b0c44298fc1c14", "bfb982cc83a7bdf0"),
    "frame-check --frame @selection-entry-not-an-object":
        (2, "e3b0c44298fc1c14", "bfb982cc83a7bdf0"),
    "frame-check --frame @string-event": (2, "e3b0c44298fc1c14", "1b6039765e32b14f"),
    "frame-check --frame @string-belief-members": (2, "e3b0c44298fc1c14", "63e36dbf4c227ee3"),
    "frame-check --frame @valuation-not-an-object": (1, "617d6d8382427566", "e3b0c44298fc1c14"),
    "frame-check --frame @string-valuation-members": (1, "617d6d8382427566", "e3b0c44298fc1c14"),
    "frame-check --frame @many-issues": (2, "e3b0c44298fc1c14", "ef84bb6169a8b2f2"),
    "eval --model @non-serial --state s0 --formula p": (2, "e3b0c44298fc1c14", "e0857821354db0bb"),
    "eval --model @belief-missing-state --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "b8d436df2eea1d50"),
    "eval --model @missing-entry --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "a2fabe006d1d3435"),
    "eval --model @missing-summary --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "5be211362f381f5a"),
    "eval --model @unknown-belief-key --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "46cf7fffa5ba197c"),
    "eval --model @unknown-belief-member --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "d9e46f515141b7de"),
    "eval --model @unknown-selection-state --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "9f3fba8cbd8d4b90"),
    "eval --model @non-string-selection-state --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "90b5f37a5efc466b"),
    "eval --model @unknown-event-member --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "93e8e5a1487be6b1"),
    "eval --model @unknown-selected-member --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "d2e5b13596279500"),
    "eval --model @unhashable-member --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "5f0b28a6f5e8ce1b"),
    "eval --model @unknown-valuation-state --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "891edba15cb82b4b"),
    "eval --model @empty-event --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "cb3b90a1a5ebac37"),
    "eval --model @duplicate-entry --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "b27c698058109bb5"),
    "eval --model @duplicate-entry-reordered --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "b8d85bff95de47dd"),
    "eval --model @invalid-atom --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "4679707c3a68bdb9"),
    "eval --model @top-level-array --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "16de3f679c923452"),
    "eval --model @states-not-a-list --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "2420a9207e7b9a57"),
    "eval --model @empty-states --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "2420a9207e7b9a57"),
    "eval --model @duplicate-state-names --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "10b791a1f5eed580"),
    "eval --model @non-string-state-name --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "7b7ca1a8b4fa32c2"),
    "eval --model @belief-not-an-object --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "4b7ee4af52d5b0fa"),
    "eval --model @selection-not-a-list --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "bfb982cc83a7bdf0"),
    "eval --model @selection-entry-not-an-object --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "bfb982cc83a7bdf0"),
    "eval --model @string-event --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "1b6039765e32b14f"),
    "eval --model @string-belief-members --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "63e36dbf4c227ee3"),
    "eval --model @valuation-not-an-object --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "dbcbe82ec199c137"),
    "eval --model @string-valuation-members --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "2fde72fb63ce37ab"),
    "eval --model @many-issues --state s0 --formula p":
        (2, "e3b0c44298fc1c14", "ef84bb6169a8b2f2"),
    "agm-check --json --frame @many-issues": (2, "e3b0c44298fc1c14", "ef84bb6169a8b2f2"),
    "countermodel --axiom A2 --frame @duplicate-entry":
        (2, "e3b0c44298fc1c14", "b27c698058109bb5"),
    "sweep --size 3": (2, "e3b0c44298fc1c14", "141174be2777ef1f"),
    "sweep --size 2 --mode random --count 5": (2, "e3b0c44298fc1c14", "916c8a987a99eda3"),
    "sweep --size 2 --ks 2,2": (2, "e3b0c44298fc1c14", "1f87f0734c2df50e"),
    "sweep --size 2 --ks 2,x": (2, "e3b0c44298fc1c14", "522f7074724d341c"),
}

SWEEP_GOLDEN = {
    "sweep --size 1": (0, "9c76ebbdcc275cb7", "e3b0c44298fc1c14"),
    "sweep --json --size 1": (0, "c5aaeeb7e161a1fc", "e3b0c44298fc1c14"),
    "sweep --size 2 --ks 4,2": (0, "8b902e226dc8211f", "e3b0c44298fc1c14"),
    "sweep --json --size 2 --ks 4,2": (0, "c6494c4e3da4d4dd", "e3b0c44298fc1c14"),
    "sweep --size 2 --mode random --count 300 --seed 9 --ks 4":
        (0, "27d62ceb2324d9ca", "e3b0c44298fc1c14"),
    "sweep --json --size 2 --mode random --count 300 --seed 9 --ks 4":
        (0, "a95e270869667fb7", "e3b0c44298fc1c14"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden")
    out = {"@fx2": str(REPO_ROOT / "fixtures" / "fx2.json"),
           "@m0": str(REPO_ROOT / "fixtures" / "m0.json")}
    for name, data in MALFORMED.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out["@" + name] = str(path)
    return out


def _outcome(capsys, paths: dict, argv: list) -> tuple:
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    return code, _digest(captured.out), _digest(captured.err)


def test_cli_output_matches_golden(capsys, paths):
    mismatches = {}
    for key, expected in GOLDEN.items():
        got = _outcome(capsys, paths, shlex.split(key))
        if got != expected:
            mismatches[key] = got
    assert not mismatches, mismatches


def test_sweep_output_matches_golden(capsys):
    mismatches = {}
    for key, expected in SWEEP_GOLDEN.items():
        code = main(shlex.split(key))
        captured = capsys.readouterr()
        lines = captured.out.splitlines(keepends=True)
        assert sum("duration_ms" in line for line in lines) == 1, key
        out = "".join(line for line in lines if "duration_ms" not in line)
        got = (code, _digest(out), _digest(captured.err))
        if got != expected:
            mismatches[key] = got
    assert not mismatches, mismatches


def test_dump_equals_json_dumps_on_every_golden_payload(capsys, paths, monkeypatch):
    """Every payload the ``GOLDEN`` and ``SWEEP_GOLDEN`` argvs print as JSON,
    ``sweep --json`` reports included, lays out as ``json.dumps`` does."""
    payloads = []
    dump = cli._dump

    def recording_dump(obj):
        payloads.append((argv, obj))
        return dump(obj)

    monkeypatch.setattr(cli, "_dump", recording_dump)
    for key in [*GOLDEN, *SWEEP_GOLDEN]:
        argv = shlex.split(key)
        main([paths.get(arg, arg) for arg in argv])
        capsys.readouterr()
    assert {argv[0] for argv, _ in payloads} == {
        "parse", "eval", "frame-check", "axiom-check", "agm-check", "revise", "countermodel",
        "sweep"}
    for argv, obj in payloads:
        assert dump(obj) == json.dumps(obj, indent=2, sort_keys=True), argv


def test_golden_covers_every_command_and_issue_kind():
    argvs = [shlex.split(key) for key in GOLDEN]
    commands = {argv[0] for argv in argvs}
    assert commands == {"parse", "eval", "frame-check", "axiom-check", "agm-check", "revise",
                        "countermodel", "sweep"}
    for fixture in ("@fx2", "@m0"):
        assert {argv[0] for argv in argvs if fixture in argv} == commands - {"parse", "sweep"}
    assert {int(argv[-1].split(":")[0]) for argv in argvs if "--code" in argv} == {1, 2, 3, 4}
    assert {code for code, _, _ in GOLDEN.values()} == {0, 1, 2}
    kinds = set()
    for data in MALFORMED.values():
        with pytest.raises(FrameValidationError) as exc:
            load_model(data)
        kinds.update(issue.kind for issue in exc.value.issues)
    assert kinds == {"non_serial", "missing_selection_entry", "unknown_state", "empty_event",
                     "duplicate_selection_entry", "invalid_atom", "bad_structure"}

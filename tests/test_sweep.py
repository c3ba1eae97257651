import enum
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from kripkelewis import (
    PAIRED_PROPERTY,
    AxiomId,
    Frame,
    FrameRecord,
    PropertyId,
    Report,
    SchemaEvaluator,
    SweepConfig,
    SweepError,
    check_property,
    countermodel_from_witness,
    frame_code,
    frame_count,
    frame_digest,
    frame_from_code,
    load_frame,
    merge_reports,
    sample_frames,
    sweep,
    triple_check,
    truth,
)
import kripkelewis.correspondence as sweep_module
from kripkelewis.axioms import countermodel_assignment
from kripkelewis.model import bit_indices
from kripkelewis.revision import AgmPostulateId, frame_tables

import helpers


def test_frame_count_goldens():
    assert frame_count(1) == 2          # 1 belief relation x 2 selection tables
    assert frame_count(2) == 9 * 4096   # 9 serial relations x 4^6 selection tables


def test_enumerate_one_state():
    frames = list(helpers.enumerate_frames(1))
    assert len(frames) == 2
    assert len(set(frames)) == 2
    assert all(f.belief == (1,) for f in frames)
    assert {f.selection[0][1] for f in frames} == {0, 1}


def test_enumerate_refuses_large_without_override():
    with pytest.raises(ValueError):
        next(helpers.enumerate_frames(3))


def test_enumerate_two_state_contains_fx2_exactly_once(fx2):
    hits = 0
    total = 0
    for frame in helpers.enumerate_frames(2):
        total += 1
        if frame == fx2:
            hits += 1
    assert total == 36864
    assert hits == 1


def test_code_round_trip():
    for code in (0, 1, 12345, frame_count(2) - 1):
        frame = frame_from_code(2, code)
        assert frame_code(frame) == code
    with pytest.raises(ValueError):
        frame_from_code(2, frame_count(2))
    # no byte holds a nine-state frame's digits (and past seven states no
    # code replays through --code anyway)
    ((belief, selection),) = helpers.oracle_sample_tuples(9, 1, 165)
    frame = Frame(tuple(f"s{i}" for i in range(9)), belief, selection)
    for spell in (frame_code, frame_digest):
        with pytest.raises(ValueError):
            spell(frame)


def test_frame_from_code_equals_divmod_oracle():
    rng = random.Random(117)
    cases = [(n, code) for n in (1, 2) for code in range(frame_count(n))]
    cases += [(n, rng.randrange(frame_count(n))) for n in (3, 4, 5) for _ in range(300)]
    for n, code in cases:
        assert frame_from_code(n, code) == helpers.oracle_frame_from_code(n, code), (n, code)
    for n in (1, 2, 3, 4):
        count = frame_count(n)
        for code in (count, count + 1, 2 * count, -1, -count):
            with pytest.raises(ValueError) as got:
                frame_from_code(n, code)
            with pytest.raises(ValueError) as expected:
                helpers.oracle_frame_from_code(n, code)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n, code, message", [
    (0, 0, "state count must be at least 1, got 0"),
    (-1, 0, "state count must be at least 1, got -1"),
    (2, 2.0, "code must be an integer, got 2.0"),
    (2, True, "code must be an integer, got True"),
])
def test_frame_from_code_refuses_bad_state_counts_and_codes(n, code, message):
    # refused by name, not by an error from range() or a shift, and a bool
    # is not read as the code 0 or 1
    with pytest.raises(ValueError) as got:
        frame_from_code(n, code)
    assert str(got.value) == message


def test_enumeration_is_deterministic():
    first = [frame_digest(f) for _, f in zip(range(100), helpers.enumerate_frames(2))]
    # the frames come from a per-session cache, so fix the order itself:
    # ascending code, the order exhaustive sweeps check
    assert first == [f"2:{code}" for code in range(100)]


def test_sample_frames_deterministic_and_valid():
    a = list(sample_frames(3, 2, seed=7))
    b = list(sample_frames(3, 2, seed=7))
    assert a == b
    from kripkelewis import frame_to_json

    for frame in sample_frames(3, 25, seed=8):
        assert load_frame(frame_to_json(frame)) == frame  # seriality and totality hold


def test_sample_codes_equal_tuple_drawing_oracle():
    for n, count in ((1, 50), (2, 500), (3, 300), (4, 40)):
        for seed in (1, 5, 11, 42, 43):
            drawn = helpers.oracle_sample_tuples(n, count, seed)
            frames = [Frame(tuple(f"s{i}" for i in range(n)), b, sel) for b, sel in drawn]
            assert helpers.oracle_sample_codes(n, count, seed) == [
                frame_code(frame) for frame in frames
            ], (n, seed)
            assert list(sample_frames(n, count, seed)) == frames, (n, seed)


def test_sample_codes_equal_tuple_drawing_oracle_at_five_states():
    # n = 5 draws belief digits with getrandbits(5) and selection digits
    # with getrandbits(6)
    for seed in (0, 42):
        drawn = helpers.oracle_sample_tuples(5, 30, seed)
        frames = [Frame(tuple(f"s{i}" for i in range(5)), b, sel) for b, sel in drawn]
        assert helpers.oracle_sample_codes(5, 30, seed) == [
            frame_code(frame) for frame in frames
        ], seed
        assert list(sample_frames(5, 30, seed)) == frames, seed


def _drawn(n: int, seed: int, lo: int, hi: int) -> tuple[bytes, bytes]:
    """Frames lo to hi - 1 of the block draw, its batches joined."""
    batches = list(sweep_module._sample_batches(n, seed, lo, hi))
    assert all(0 < len(b) <= n * sweep_module.BATCH_FRAMES for b, _ in batches), (n, lo, hi)
    return b"".join(b for b, _ in batches), b"".join(s for _, s in batches)


def test_block_draw_equals_per_digit_draw():
    # every width from getrandbits(1) to getrandbits(8), prefixes skipped by
    # partitions, and partitions whose lo is one, about one batch, or past
    # the first block of words (a block holds words for about 64 frames, so
    # every count here takes more than one)
    batch = sweep_module.BATCH_FRAMES
    for n, count in ((1, 700), (2, 600), (3, 520), (4, 300), (5, 70), (6, 70), (7, 66)):
        for seed in (0, 9, 42):
            codes = helpers.oracle_sample_codes(n, count, seed)
            cuts = {0, 1, count // 2, count - 1} | {lo for lo in (batch - 1, batch, batch + 1,
                                                              batch + 7) if lo < count}
            for lo in cuts:
                expected = helpers.code_digits(n, codes[lo:])
                assert _drawn(n, seed, lo, count) == expected, (n, seed, lo)
            assert _drawn(n, seed, 0, 1) == helpers.code_digits(n, codes[:1]), (n, seed)


def test_sample_frames_takes_one_to_seven_states():
    for n in (0, 8, 9):
        with pytest.raises(ValueError, match="state count must be 1 to 7"):
            next(sample_frames(n, 1, seed=0))
    with pytest.raises(ValueError, match="count must be positive"):
        next(sample_frames(2, 0, seed=0))
    # past sys.maxsize islice would refuse the count at the first draw
    with pytest.raises(ValueError) as got:
        next(sample_frames(2, sys.maxsize + 1, seed=0))
    assert str(got.value) == f"count must be at most {sys.maxsize} (sys.maxsize)"
    # random.Random seeds by |seed|, so -7 would draw exactly the frames of 7
    for seed in (-1, -7):
        with pytest.raises(ValueError, match=f"requires a seed >= 0, got {seed}"):
            next(sample_frames(2, 5, seed))
    (code,) = helpers.oracle_sample_codes(7, 1, 5)
    assert next(sample_frames(7, 1, seed=5)) == frame_from_code(7, code)
    # frames built from the drawn bytes, against decoding the per-digit draw
    for n in range(1, 8):
        codes = helpers.oracle_sample_codes(n, 50, 160 + n)
        assert list(sample_frames(n, 50, 160 + n)) == [frame_from_code(n, c) for c in codes], n


def test_frame_bytes_round_trip_equals_divmod_oracle():
    # the one Frame <-> bytes spelling, both ways, against each code's divmod
    # digits and divmod decoding: every two-state code, and sampled and
    # ranked codes on 3 to 7 states, frame i of batches of up to 250
    rng = random.Random(163)
    cases = [(2, list(range(frame_count(2))))]
    for n in range(3, 8):
        ranked = [helpers.oracle_frame_code(helpers.ranked_frame(rng, n)) for _ in range(20)]
        cases.append((n, helpers.oracle_sample_codes(n, 20, 164 + n) + ranked))
    for n, codes in cases:
        for lo in range(0, len(codes), 250):
            batch = codes[lo : lo + 250]
            beliefs, selections = helpers.code_digits(n, batch)
            frames = [helpers.oracle_frame_from_code(n, code) for code in batch]
            lanes = range(len(batch))
            assert [sweep_module._spell_frame(n, beliefs, selections, i) for i in lanes] == frames
            spelled = [sweep_module._frame_bytes(frame) for frame in frames]
            assert (b"".join(b for b, _ in spelled), b"".join(s for _, s in spelled)) == (
                beliefs, selections), (n, lo)
            assert [frame_code(frame) for frame in frames] == batch, (n, lo)
            assert [frame_from_code(n, code) for code in batch] == frames, (n, lo)


def analytic_p2_rate(n: int) -> Fraction:
    """Closed-form probability that a uniformly drawn frame satisfies P2.

    A frame satisfies P2 iff every state reachable through some belief set
    has all its selection entries inside their events.  Selection entries
    are independent and uniform over all events, so a constrained state
    complies with probability prod over nonempty E of 2^|E| / 2^n, and the
    union R of the n independent uniformly drawn nonempty belief sets
    determines how many states are constrained.
    """
    full = (1 << n) - 1
    per_state = Fraction(1)
    for e in range(1, full + 1):
        per_state *= Fraction(2 ** e.bit_count(), 1 << n)
    rate = Fraction(0)
    for t in range(1, n + 1):
        exact_t = Fraction(0)  # P(|R| = t) for one fixed t-subset
        for u in range(t + 1):
            exact_t += (-1) ** (t - u) * comb(t, u) * Fraction(2**u - 1, full) ** n
        rate += comb(n, t) * exact_t * per_state**t
    return rate


def test_sampled_p2_rate_matches_analytic_value():
    for n, count, seed in ((2, 10000, 20), (3, 10000, 21)):
        rate = analytic_p2_rate(n)
        hits = sum(
            check_property(frame, PropertyId.P2) is None
            for frame in sample_frames(n, count, seed)
        )
        sigma = math.sqrt(float(rate) * (1 - float(rate)) / count)
        assert abs(hits / count - float(rate)) <= 3 * sigma, (n, hits)


def test_triple_check_m0(m0):
    record = triple_check(m0)
    assert all(record.property_pass.values())
    assert all(record.axiom_valid.values())
    assert all(record.agm_all_states.values())
    assert all(record.always_valid.values())
    assert record.discrepancies == []
    assert record.replays == []


def test_triple_check_fx2(fx2):
    record = triple_check(fx2)
    assert record.property_pass[2] is False
    assert record.axiom_valid[2] is False
    assert record.agm_all_states[2] is False
    assert record.always_valid["A1"] is True
    assert record.discrepancies == []
    assert (2, True) in record.replays


def test_triple_check_restricted_to_one_pair():
    frame = helpers.empty_selection_frame()
    record = triple_check(frame, ks=(5,))
    assert set(record.property_pass) == {5}
    assert record.property_pass[5] is False
    assert record.replays == [(5, True)]
    assert record.discrepancies == []


def test_triple_check_refuses_ks_outside_the_six():
    # the rule SweepConfig.validate applies: unknown k, repeats, nothing
    frame = helpers.empty_selection_frame()
    for ks in ((1,), (9,), (2, 2), ()):
        with pytest.raises(ValueError) as exc:
            triple_check(frame, ks)
        assert str(exc.value) == (
            f"ks must be a nonempty subset of (2, 3, 4, 5, 7, 8) without repeats, got {ks}")


def test_triple_check_replays_equal_pointwise_truth():
    # the evaluator replay in triple_check against the model route it replaced
    frames = list(sample_frames(2, 150, seed=14)) + list(sample_frames(3, 150, seed=15))
    replays = 0
    for frame in frames:
        expected = []
        for k in (2, 3, 4, 5, 7, 8):
            w = check_property(frame, PropertyId(f"P{k}"))
            if w is not None:
                model, s, instance = countermodel_from_witness(frame, AxiomId(f"A{k}"), w)
                expected.append((k, not truth(model, s, instance)))
        assert triple_check(frame).replays == expected, frame_digest(frame)
        replays += len(expected)
    assert replays > 300


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(size=0).validate()
    with pytest.raises(ValueError):
        SweepConfig(size=2, mode="randomish").validate()
    with pytest.raises(ValueError):
        SweepConfig(size=2, mode="random", count=10).validate()  # no seed
    with pytest.raises(ValueError):
        SweepConfig(size=2, mode="random", seed=1).validate()  # no count
    with pytest.raises(ValueError):
        SweepConfig(size=3, mode="exhaustive").validate()  # past two states
    with pytest.raises(ValueError):
        SweepConfig(size=2, ks=(2, 6)).validate()
    SweepConfig(size=2).validate()
    SweepConfig(size=3, mode="random", count=5, seed=0).validate()


@pytest.mark.parametrize("field, value, call", [
    ("size", 2.5, lambda: sweep(SweepConfig(2.5))),
    ("count", 5.5, lambda: sweep(SweepConfig(3, "random", 5.5, 1))),
    ("seed", 1.5, lambda: sweep(SweepConfig(2, "random", 5, 1.5))),
    ("size", True, lambda: sweep(SweepConfig(True))),
    ("ks", 2.0, lambda: sweep(SweepConfig(2, ks=(2.0,)))),
    ("ks", 2.0, lambda: triple_check(frame_from_code(2, 0), ks=(2.0,))),
    ("n", 2.0, lambda: next(sample_frames(2.0, 5, 1))),
    ("count", 5.5, lambda: next(sample_frames(2, 5.5, 1))),
    ("workers", 2.5, lambda: sweep(SweepConfig(2), workers=2.5)),  # range(3.5) past 2 CPUs
])
def test_library_sweeps_refuse_numbers_that_are_not_ints(field, value, call):
    # a float or a bool is refused by name, before it reaches a shift, a
    # slice or the seeding of the stream (random.Random(1.5) seeds by hash)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
        call()


def test_sweep_config_is_an_immutable_value():
    cfg = SweepConfig(2)
    assert (cfg.size, cfg.mode, cfg.count, cfg.seed, cfg.ks, cfg.allow_large) == (
        2, "exhaustive", None, None, (2, 3, 4, 5, 7, 8), False)
    same = SweepConfig(size=3, mode="random", count=5, seed=1, ks=(2, 4), allow_large=True)
    assert same == SweepConfig(3, "random", 5, 1, (2, 4), True)
    assert hash(same) == hash(SweepConfig(3, "random", 5, 1, (2, 4), True))
    assert len({cfg, SweepConfig(size=2), same}) == 2
    with pytest.raises(AttributeError):
        cfg.size = 3
    echo = same.echo()
    assert list(echo) == ["size", "mode", "count", "seed", "ks", "allow_large"]
    assert echo == {"size": 3, "mode": "random", "count": 5, "seed": 1, "ks": [2, 4],
                    "allow_large": True}


def test_report_pickles_and_to_json_is_a_deep_copy():
    import pickle

    report = sweep(SweepConfig(2, "random", 200, 3, ks=(4,)))
    report.discrepancies.append({"digest": "2:0", "kind": "countermodel_replay", "k": 4})
    again = pickle.loads(pickle.dumps(report))
    assert again == report and again.to_json() == report.to_json()
    data = report.to_json()
    assert list(data) == ["config", "totals", "per_axiom", "per_agm", "always_valid", "replay",
                          "discrepancies", "duration_ms"]
    before = json.dumps(data, sort_keys=True)
    data["config"]["ks"].append(9)
    data["totals"]["frames"] = -1
    data["per_axiom"]["P4"]["pp"] = -1
    data["discrepancies"][0]["k"] = -1
    data["discrepancies"].clear()
    assert json.dumps(report.to_json(), sort_keys=True) == before
    empty = Report({"ks": []})
    assert (empty.totals, empty.replay) == ({"frames": 0, "property_violations": 0},
                                            {"attempted": 0, "falsified": 0})
    assert empty.per_axiom == empty.per_agm == empty.always_valid == {}
    assert empty.discrepancies == [] and empty.duration_ms == 0
    assert empty.totals is not Report({"ks": []}).totals


@pytest.mark.parametrize("extra", [{"seed": 3}, {"count": -3}, {"count": 5, "seed": 0}])
def test_exhaustive_mode_refuses_seed_and_count(extra):
    # Exhaustive mode enumerates every frame, so a seed or count would be
    # ignored and only echoed into the report's config.
    with pytest.raises(ValueError, match="exhaustive mode takes no count or seed"):
        SweepConfig(size=1, **extra).validate()
    with pytest.raises(ValueError, match="exhaustive mode takes no count or seed"):
        sweep(SweepConfig(size=1, mode="exhaustive", **extra))


def test_sweep_random_mode_deterministic():
    cfg = SweepConfig(size=2, mode="random", count=400, seed=9, ks=(2, 5))
    one = sweep(cfg).to_json()
    two = sweep(cfg).to_json()
    one.pop("duration_ms")
    two.pop("duration_ms")
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_sweep_counts_sum_to_total():
    cfg = SweepConfig(size=2, mode="random", count=300, seed=10)
    report = sweep(cfg)
    assert report.totals["frames"] == 300
    for cells in report.per_axiom.values():
        assert sum(cells.values()) == 300
    for cells in report.per_agm.values():
        assert sum(cells.values()) == 300


def test_sweep_parallel_matches_serial():
    cfg = SweepConfig(size=2, mode="random", count=600, seed=11, ks=(2, 7))
    serial = sweep(cfg, workers=1).to_json()
    parallel = sweep(cfg, workers=3).to_json()
    serial.pop("duration_ms")
    parallel.pop("duration_ms")
    assert serial == parallel


@pytest.fixture
def bounded():
    """Fails a test still running after 60 s, so that a sweep waiting on a
    worker that will never report fails instead of hanging the run."""

    def timeout(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# Workers see a patch made in the parent only when they are forked from it.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are not forked")


def _fail_on(monkeypatch, codes) -> None:
    """Make building a batch's lane tables raise RuntimeError("injected")
    when the batch holds one of these frame codes, in this process and in
    every worker forked from it."""
    real = sweep_module._lane_tables

    def failing(n, beliefs, selections):
        lanes = range(len(beliefs) // n)
        batch = {sweep_module._spell_code(n, beliefs, selections, i) for i in lanes}
        if not codes.isdisjoint(batch):
            raise RuntimeError("injected")
        return real(n, beliefs, selections)

    monkeypatch.setattr(sweep_module, "_lane_tables", failing)


def test_sweep_workers_capped_at_cpu_count(monkeypatch, bounded):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)  # one per worker started
        return pid

    monkeypatch.setattr(sweep_module.os, "fork", counting_fork)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    cfg = SweepConfig(size=2, mode="random", count=120, seed=16, ks=(2, 8))
    parallel = sweep(cfg, workers=64).to_json()
    assert len(forks) == 2  # two workers and the parent: three processes check
    helpers.no_children()
    serial = sweep(cfg, workers=1).to_json()
    parallel.pop("duration_ms")
    serial.pop("duration_ms")
    assert parallel == serial

    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: None)
    sweep(cfg, workers=8)
    assert len(forks) == 2  # an unknown core count means the parent alone
    helpers.no_children()

    # without os.fork the sweep runs in one process
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    monkeypatch.delattr(sweep_module.os, "fork")
    without = sweep(cfg, workers=3).to_json()
    without.pop("duration_ms")
    assert without == serial
    assert len(forks) == 2


def test_cli_import_loads_no_process_machinery():
    # only a sweep on several workers imports pickle and signal, and none
    # imports multiprocessing: its workers are bare forks
    names = "{'multiprocessing', 'concurrent', 'pickle', 'signal'}"
    code = f"import sys, kripkelewis.cli; print(sorted({names} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(sweep_module.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_sweep_exhaustive_parallel_partition(monkeypatch, bounded):
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    for size, frames in ((1, 2), (2, 36_864)):
        cfg = SweepConfig(size=size, mode="exhaustive")
        serial = sweep(cfg, workers=1).to_json()
        parallel = sweep(cfg, workers=2).to_json()
        serial.pop("duration_ms")
        parallel.pop("duration_ms")
        assert serial == parallel
        assert serial["totals"]["frames"] == frames


def _spelled(monkeypatch, cfg: SweepConfig, parts: int) -> list:
    """The frames of ``parts`` partitions of cfg's stream, each spelled on
    its own and handed to its route by ``_run_partition``: codes in
    exhaustive mode, else batches of belief and selection bytes, joined."""
    for route in ("_fold_profiles", "_check_frames"):
        monkeypatch.setattr(sweep_module, route, lambda config, frames: list(frames))
    payloads = sweep_module._make_payloads(cfg, parts)
    assert len(payloads) == min(parts, cfg.count or frame_count(cfg.size))
    frames = [frame for payload in payloads for frame in sweep_module._run_partition(*payload)]
    if cfg.mode == "exhaustive":
        return frames
    return [b"".join(b for b, _ in frames), b"".join(s for _, s in frames)]


def test_partitions_concatenate_to_the_stream(monkeypatch):
    # each partition spells its own codes; a middle one skips a prefix
    for parts in (2, 3, 4, 5):
        count = 6 * parts + 1  # not a multiple of the partition count
        for n in (1, 2, 3, 4):
            for seed in (3, 42, 161):
                cfg = SweepConfig(size=n, mode="random", count=count, seed=seed)
                codes = helpers.oracle_sample_codes(n, count, seed)
                assert _spelled(monkeypatch, cfg, parts) == list(helpers.code_digits(n, codes)), (
                    n, seed, parts)
        for n in (1, 2):
            assert _spelled(monkeypatch, SweepConfig(size=n), parts) == list(
                range(frame_count(n))), (n, parts)


def test_five_workers_cut_blocks_and_report_the_pinned_digest(monkeypatch, bounded):
    # partition bounds fall inside the 4,096-code spans the profile route folds
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 5)
    cfg = SweepConfig(size=2)
    bounds = [lo for _, lo, _ in sweep_module._make_payloads(cfg, 5)][1:]
    assert len(bounds) == 4 and all(lo % 64 for lo in bounds), bounds
    serial, parallel = sweep(cfg, workers=1), sweep(cfg, workers=5)
    assert _report_digest(parallel) == _report_digest(serial) == REPORT_DIGESTS["exhaustive2"]
    helpers.no_children()


def test_three_workers_report_the_pinned_digest(monkeypatch, bounded):
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    cfg = SweepConfig(size=3, mode="random", count=1000, seed=42)
    assert [payload[1:] for payload in sweep_module._make_payloads(cfg, 3)] == [
        (0, 333), (333, 666), (666, 1000)]
    assert _report_digest(sweep(cfg, workers=3)) == REPORT_DIGESTS["random3_1000_seed42"]
    helpers.no_children()


def test_merge_reports_is_order_insensitive():
    cfg = SweepConfig(size=2, mode="random", count=90, seed=12)
    parts = [sweep_module._run_partition(cfg.echo(), lo, hi)
             for lo, hi in ((0, 30), (30, 60), (60, 90))]
    forward = merge_reports(parts).to_json()
    backward = merge_reports(list(reversed(parts))).to_json()
    nested = merge_reports([merge_reports(parts[:2]), parts[2]]).to_json()
    for payload in (forward, backward, nested):
        payload.pop("duration_ms")
    assert forward == backward == nested
    assert forward["totals"]["frames"] == 90


def test_merge_reports_rejects_mismatched_configs():
    a = Report.empty(SweepConfig(size=1).echo())
    b = Report.empty(SweepConfig(size=2).echo())
    with pytest.raises(ValueError):
        merge_reports([a, b])


def test_sweep_aborts_with_partial_report(monkeypatch):
    # both routes build the lane tables of every batch they check with
    # _lane_tables; this one fails once it has seen more than 50 codes
    calls = {"n": 0}
    real = sweep_module._lane_tables

    def flaky(n, beliefs, selections):
        calls["n"] += len(beliefs) // n
        if calls["n"] > 50:
            raise RuntimeError("injected")
        return real(n, beliefs, selections)

    monkeypatch.setattr(sweep_module, "_lane_tables", flaky)
    cfg = SweepConfig(size=2, mode="random", count=200, seed=13, ks=(2,))
    with pytest.raises(SweepError) as exc:
        sweep(cfg, workers=1)
    assert exc.value.partial_report.totals["frames"] == 0  # single partition failed

    calls["n"] = 0
    # with several partitions the completed ones survive in the partial report
    config, lo, hi = sweep_module._make_payloads(cfg, 4)[0]
    partial = sweep_module._run_partition(config, lo, hi)
    assert partial.totals["frames"] == 50


def test_random_mode_refuses_five_states_without_override():
    with pytest.raises(ValueError, match="allow_large"):
        SweepConfig(size=5, mode="random", count=1, seed=0).validate()
    with pytest.raises(ValueError, match="allow_large"):
        SweepConfig(size=12, mode="random", count=1, seed=0).validate()
    SweepConfig(size=4, mode="random", count=1, seed=0).validate()
    SweepConfig(size=5, mode="random", count=1, seed=0, allow_large=True).validate()
    # past 7 states allow_large lifts nothing: no digest of such a sweep replays
    for size in (8, 40):
        for cfg in (SweepConfig(size=size, mode="random", count=1, seed=0, allow_large=True),
                    SweepConfig(size=size, allow_large=True)):
            with pytest.raises(ValueError, match="at most 7"):
                cfg.validate()
    SweepConfig(size=7, mode="random", count=1, seed=0, allow_large=True).validate()
    # exhaustive mode cannot finish past two states, allow_large or not
    for size in (3, 4, 7):
        with pytest.raises(ValueError, match="cannot finish past two states"):
            SweepConfig(size=size, allow_large=True).validate()


def test_sweep_error_names_serial_partition(monkeypatch):
    def failing(n, beliefs, selections):
        raise RuntimeError("injected")

    monkeypatch.setattr(sweep_module, "_lane_tables", failing)
    cfg = SweepConfig(size=2, mode="random", count=200, seed=13, ks=(2,))
    with pytest.raises(SweepError) as exc:
        sweep(cfg, workers=1)
    assert str(exc.value) == "sweep aborted: partition codes[0:200] (seed 13) failed: injected"

    with pytest.raises(SweepError) as exc:
        sweep(SweepConfig(size=1, mode="exhaustive"), workers=1)
    assert str(exc.value) == "sweep aborted: partition codes[0:2] failed: injected"


@needs_fork
def test_sweep_error_names_pool_partition(monkeypatch, bounded):
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    # three partitions of 40 frames each; the first two go to workers
    cfg = SweepConfig(size=2, mode="random", count=120, seed=16, ks=(2, 8))
    codes = helpers.oracle_sample_codes(2, 120, 16)
    assert codes.index(codes[50]) == 50 and codes[50] not in codes[80:]
    _fail_on(monkeypatch, {codes[50]})
    with pytest.raises(SweepError) as exc:
        sweep(cfg, workers=3)
    assert str(exc.value) == "sweep aborted: partition codes[40:80] (seed 16) failed: injected"
    assert exc.value.partial_report.totals["frames"] == 80  # the first and the last
    helpers.no_children()

    # a worker and the parent both fail: the lower partition is named
    assert codes.index(codes[110]) == 110
    _fail_on(monkeypatch, {codes[50], codes[110]})
    with pytest.raises(SweepError) as exc:
        sweep(cfg, workers=3)
    assert str(exc.value) == "sweep aborted: partition codes[40:80] (seed 16) failed: injected"
    assert exc.value.partial_report.totals["frames"] == 40
    helpers.no_children()


def test_sweep_error_names_parent_partition(monkeypatch, bounded):
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    real = sweep_module._fold_profiles

    def failing(config, codes):  # the parent checks the last partition, codes[1:2]
        if codes.start == 1:
            raise RuntimeError("injected")
        return real(config, codes)

    monkeypatch.setattr(sweep_module, "_fold_profiles", failing)
    with pytest.raises(SweepError) as exc:
        sweep(SweepConfig(size=1, mode="exhaustive"), workers=2)
    assert str(exc.value) == "sweep aborted: partition codes[1:2] failed: injected"
    assert exc.value.partial_report.totals["frames"] == 1
    helpers.no_children()


@needs_fork
def test_worker_traceback_is_the_cause_of_its_failure(monkeypatch, bounded):
    # pickling drops a worker's traceback, so the worker sends it as text
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    cfg = SweepConfig(size=2, mode="random", count=120, seed=16, ks=(2, 8))
    codes = helpers.oracle_sample_codes(2, 120, 16)
    assert codes[10] not in codes[60:]  # so only the worker's partition fails
    _fail_on(monkeypatch, {codes[10]})
    with pytest.raises(SweepError) as exc:
        sweep(cfg, workers=2)
    assert str(exc.value) == "sweep aborted: partition codes[0:60] (seed 16) failed: injected"
    assert exc.value.partial_report.totals["frames"] == 60
    failure = exc.value.__cause__
    assert repr(failure) == "RuntimeError('injected')"
    remote = str(failure.__cause__)
    assert ", in failing\n" in remote and remote.endswith("RuntimeError: injected\n"), remote
    helpers.no_children()


@needs_fork
def test_sweep_worker_exiting_without_report_is_a_sweep_error(monkeypatch, bounded):
    # a worker leaves by its own exit, or is killed by a signal, unreported
    parent, real = os.getpid(), sweep_module._run_partition
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    cfg = SweepConfig(size=2, mode="random", count=120, seed=16, ks=(2, 8))
    for code, leave in ((3, lambda: os._exit(3)),
                        (-9, lambda: os.kill(os.getpid(), signal.SIGKILL))):

        def dies_in_worker(config, lo, hi, leave=leave):
            if os.getpid() != parent:
                leave()
            return real(config, lo, hi)

        monkeypatch.setattr(sweep_module, "_run_partition", dies_in_worker)
        with pytest.raises(SweepError) as exc:
            sweep(cfg, workers=2)
        assert str(exc.value) == ("sweep aborted: partition codes[0:60] (seed 16) failed: "
                                  f"worker exited with code {code}")
        assert exc.value.partial_report.totals["frames"] == 60  # the parent's partition
        helpers.no_children()


def test_keyboard_interrupt_in_parent_partition_propagates(monkeypatch, bounded):
    parent, real = os.getpid(), sweep_module._run_partition

    def interrupted_in_parent(config, lo, hi):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(config, lo, hi)

    monkeypatch.setattr(sweep_module, "_run_partition", interrupted_in_parent)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 3)
    cfg = SweepConfig(size=3, mode="random", count=3000, seed=16)
    with pytest.raises(KeyboardInterrupt):
        sweep(cfg, workers=3)
    helpers.no_children()


def _frame_route(config: dict, codes) -> Report:
    """``_check_frames`` on these codes, in batches of ``BATCH_FRAMES``."""
    return sweep_module._check_frames(config, helpers.code_batches(config["size"], codes))


def _both_routes(config: dict, codes: range) -> tuple[dict, dict]:
    profiles = sweep_module._fold_profiles(config, codes).to_json()
    frames = _frame_route(config, codes).to_json()
    return profiles, frames


def _profile_count(n: int) -> int:
    """Number of distinct local profiles ``(belief[s], union[s])`` on n
    states: every nonempty belief set with every union-of-selections row."""
    full = (1 << n) - 1
    return full << (n * full)


def test_profile_count_goldens():
    assert [_profile_count(n) for n in (1, 2, 3)] == [2, 192, 14_680_064]
    profiles = set()
    for code in range(frame_count(2)):
        frame = frame_from_code(2, code)
        profiles.update(zip(frame.belief, frame.union))
    assert len(profiles) == 192


def test_uniform_code_spells_the_profile_at_every_state():
    rng = random.Random(151)
    for n, keys in ((1, range(2)), (2, range(192)),
                    (3, [rng.randrange(_profile_count(3)) for _ in range(300)])):
        full = (1 << n) - 1
        for key in keys:
            d, row = divmod(key, 1 << n * full)
            selected = (0, *[row >> n * (full - e) & full for e in range(1, full + 1)])
            beliefs, selections = sweep_module._uniform_frames(n, [key])
            frame = frame_from_code(n, sweep_module._spell_code(n, beliefs, selections, 0))
            assert tuple(frame.belief) == (d + 1,) * n, (n, key)
            assert tuple(frame.union) == (selected,) * n, (n, key)


def test_profile_route_equals_frame_route_all_two_state_frames():
    config = SweepConfig(size=2).echo()
    profiles, frames = _both_routes(config, range(frame_count(2)))
    assert profiles == frames
    assert profiles["replay"]["attempted"] > 0


def test_profile_route_equals_frame_route_random_partitions():
    # exhaustive partitions whose ends cut the 4,096-code spans of two
    # states, fixed and drawn at random, with subsets of ks
    rng = random.Random(152)
    drawn = [sorted(rng.sample(range(frame_count(2) + 1), 2)) for _ in range(3)]
    for n, lo, hi in ((1, 0, 2), (1, 1, 2), (2, 777, 5000), (2, 12289, 25000), (2, 63, 65),
                      *[(2, lo, hi) for lo, hi in drawn]):
        for ks in ((2, 3, 4, 5, 7, 8), (8, 2, 5), (4,)):
            config = SweepConfig(size=n, ks=ks).echo()
            profiles, frames = _both_routes(config, range(lo, hi))
            assert profiles == frames, (n, lo, hi, ks)
            assert profiles["totals"]["frames"] == hi - lo


def _three_state_starts(count: int, seed: int) -> list[int]:
    """Sampled three-state codes, ranked ones (where the properties hold),
    and two codes just below the end of a 2^21-code block, so that short
    ranges from them cross a block end.  The first block is one where every
    state believes {s0} and s0 selects nothing, so P2 holds throughout."""
    rng = random.Random(seed)
    starts = helpers.oracle_sample_codes(3, count, seed)
    starts += [frame_code(helpers.ranked_frame(rng, 3)) for _ in range(count)]
    ends = [rng.randrange(1, 1 << 21), rng.randrange(1, frame_count(3) >> 21)]
    return starts + [(end << 21) - 3 for end in ends]


_REAL_RECIPE = sweep_module.countermodel_recipe


def _broken_a2_recipe(k):
    if k is not AxiomId.A2:
        return _REAL_RECIPE(k)
    # reads belief[s] & {s0, s1}; where that is {s0, s1}, p is the empty
    # event, which cannot falsify A2
    return lambda e, f: ("belief", 3), lambda e, f, u: (0,) if u == 3 else (e,)


def test_profile_route_equals_frame_route_three_state_codes(monkeypatch):
    # the profile lemma at three states, where no sweep folds: the oracle
    # fold of short ranges equals the frame route, with the true recipes
    # and with the broken A2 recipe.  On these ranges a state where that
    # recipe cannot falsify is never a frame's lowest violating state, but
    # it is a higher one, so every replay falsifies only if each frame
    # replays its lowest violating state's countermodel
    config = SweepConfig(size=3, allow_large=True).echo()
    for recipe in (_REAL_RECIPE, _broken_a2_recipe):
        monkeypatch.setattr(sweep_module, "countermodel_recipe", recipe)
        replay = Counter()
        for start in _three_state_starts(3, 17):
            codes = range(start, start + 90)
            profiles = helpers.oracle_profile_fold(config, codes).to_json()
            assert profiles == _frame_route(config, codes).to_json(), (recipe, start)
            replay.update(profiles["replay"])
        assert replay["falsified"] == replay["attempted"] > 0, recipe


class _BrokenK2(sweep_module.PostulateEvaluator):
    # K2 also fails at every state whose union for the event {s0, s1} is empty
    postulate = AgmPostulateId.K2

    def __init__(self, *frames, tables=None):
        super().__init__(*frames, tables=tables)
        self.broken = self.states & ~self._fold(self.union[3])

    def lane_failures(self, k):
        failed = super().lane_failures(k)
        return failed | self.broken if k is self.postulate else failed


class _BrokenK5b(_BrokenK2):
    # K5b also fails at every state that believes s0
    postulate = AgmPostulateId.K5B

    def __init__(self, *frames, tables=None):
        super().__init__(*frames, tables=tables)
        self.broken = self.belief & self.states


def test_profile_route_discrepancies_and_replays_match_frame_route(monkeypatch):
    # at two states the fold itself, at three the oracle fold
    monkeypatch.setattr(sweep_module, "PostulateEvaluator", _BrokenK2)
    monkeypatch.setattr(sweep_module, "countermodel_recipe", _broken_a2_recipe)
    for n, fold, partitions in ((2, sweep_module._fold_profiles, [(4000, 4321, 9000)]), (
            3, helpers.oracle_profile_fold,
            [(start, start + 40, start + 120) for start in _three_state_starts(3, 22)])):
        config = SweepConfig(size=n, allow_large=n > 2).echo()
        kinds, replay = set(), Counter()
        for bounds in partitions:
            routes = []
            for route in (fold, _frame_route):
                parts = [route(config, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
                routes.append([p.to_json() for p in parts] + [merge_reports(parts).to_json()])
            assert routes[0] == routes[1], (n, bounds)
            kinds |= {d["kind"] for d in routes[0][-1]["discrepancies"]}
            replay.update(routes[0][-1]["replay"])
        # broken K2 shows where P2 holds: at n = 3, in the first block end
        assert kinds == {"property_vs_agm", "countermodel_replay"}, (n, kinds)
        assert replay["falsified"] < replay["attempted"]


def test_flagged_random_frames_carry_the_per_digit_draw_digest(monkeypatch, bounded):
    # a random sweep spells a flagged frame's code from its drawn bytes: the
    # digests are those of the per-digit draw's codes, on one or two workers
    monkeypatch.setattr(sweep_module, "PostulateEvaluator", _BrokenK5b)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    for n, count, seed in ((2, 800, 31), (3, 600, 32)):
        expected = []
        for code in helpers.oracle_sample_codes(n, count, seed):
            frame = frame_from_code(n, code)
            if check_property(frame, PropertyId.P5) is None and any(b & 1 for b in frame.belief):
                expected.append({"agm": False, "digest": f"{n}:{code}", "k": 5,
                                 "kind": "property_vs_agm", "property": True})
        assert len(expected) >= 5, (n, len(expected))
        expected.sort(key=lambda d: d["digest"])
        cfg = SweepConfig(size=n, mode="random", count=count, seed=seed, ks=(2, 5))
        for workers in (1, 2):
            assert sweep(cfg, workers=workers).discrepancies == expected, (n, workers)


def _count_checked_frames(monkeypatch) -> dict:
    """Counts the frames (or profiles' uniform frames) that go through the
    per-frame step, and checks that no batch exceeds BATCH_FRAMES."""
    calls = {"n": 0}
    real = sweep_module._batch_verdicts

    def spy(n, beliefs, selections, ks):
        assert 0 < len(beliefs) // n <= sweep_module.BATCH_FRAMES
        calls["n"] += len(beliefs) // n
        return real(n, beliefs, selections, ks)

    monkeypatch.setattr(sweep_module, "_batch_verdicts", spy)
    return calls


def test_route_choice_and_memo_lifetime(monkeypatch):
    calls = _count_checked_frames(monkeypatch)
    first = sweep(SweepConfig(size=2, mode="exhaustive")).to_json()
    once = calls["n"]
    assert once == 192  # every two-state profile, once
    calls["n"] = 0
    second = sweep(SweepConfig(size=2, mode="exhaustive")).to_json()
    assert calls["n"] == once  # the memo lives for one partition only
    first.pop("duration_ms")
    second.pop("duration_ms")
    assert first == second

    # random partitions take the frame route, whatever their length
    for n in (2, 3):
        calls["n"] = 0
        sweep(SweepConfig(size=n, mode="random", count=1000, seed=42))
        assert calls["n"] == 1000, n

    # a one-code partition checks both one-state profiles
    calls["n"] = 0
    sweep_module._fold_profiles(SweepConfig(size=1).echo(), range(1, 2))
    assert calls["n"] == 2

    # the mode alone picks the route: a one-code exhaustive partition folds
    for route in ("_fold_profiles", "_check_frames"):
        monkeypatch.setattr(sweep_module, route, lambda config, codes, route=route: route)
    assert sweep_module._run_partition(SweepConfig(size=1).echo(), 1, 2) == "_fold_profiles"
    config = SweepConfig(size=2, mode="random", count=1, seed=0).echo()
    assert sweep_module._run_partition(config, 0, 1) == "_check_frames"


def test_random_partition_streams_its_codes():
    # a random partition is checked as its codes are drawn, BATCH_FRAMES at
    # a time: holding the 20,000 codes would peak at about 800 KB
    # first fill the caches a 250-frame batch reads
    sweep(SweepConfig(size=2, mode="random", count=sweep_module.BATCH_FRAMES, seed=7))
    tracemalloc.start()
    try:
        report = sweep(SweepConfig(size=2, mode="random", count=20_000, seed=7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.totals["frames"] == 20_000
    assert peak < 200_000, peak


def test_exhaustive_fold_memory_stays_flat():
    # the fold holds one span's columns at a time, not the partition's
    config = SweepConfig(size=2).echo()
    sweep_module._fold_profiles(config, range(frame_count(2)))  # first fill the caches
    tracemalloc.start()
    try:
        report = sweep_module._fold_profiles(config, range(frame_count(2)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.totals["frames"] == frame_count(2)
    assert peak < 300_000, peak


# sha256 of the sorted-key JSON report without duration_ms: the byte-stable
# report contract.  The first two were recorded before sweeps were
# lane-batched, the four- and five-state ones before batches built their
# lane tables from frame codes.
REPORT_DIGESTS = {
    "exhaustive2": "058453b7bc09785f13f3d5ba24112eaeca0aeaed0aa91631c2dc0247a78e4dba",
    "random3_1000_seed42": "acd118acf93ddf6bfc33be4a3bf6eb879f5803fe5758d14ee6dba98c87382c52",
    "random4_500_seed42": "df02008cdcc61fbfdf5f3a89345aaf2a712c463fbd8fb86d4f32a505757fb5c2",
    "random5_100_seed42": "8a66d1017affdd5868410df8f18cc300e9670287b0c11dce692bf6ff05432df1",
}


def _report_digest(report: Report) -> str:
    body = report.to_json()
    body.pop("duration_ms")
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def test_report_digests_golden():
    assert _report_digest(sweep(SweepConfig(size=2))) == REPORT_DIGESTS["exhaustive2"]
    for name, cfg in (
        ("random3_1000_seed42", SweepConfig(size=3, mode="random", count=1000, seed=42)),
        ("random4_500_seed42", SweepConfig(size=4, mode="random", count=500, seed=42)),
        ("random5_100_seed42",
         SweepConfig(size=5, mode="random", count=100, seed=42, allow_large=True)),
    ):
        for workers in (1, 2):
            assert _report_digest(sweep(cfg, workers=workers)) == REPORT_DIGESTS[name], (
                name, workers)


def _per_frame_report(config: dict, codes) -> dict:
    """The frame route as one triple_check (one lane) per frame."""
    n, ks = config["size"], tuple(config["ks"])
    report = Report.empty(config)
    for code in codes:
        report.add_record(triple_check(frame_from_code(n, code), ks))
    return report.to_json()


def test_batched_frame_route_equals_per_frame_triple_check(monkeypatch):
    # ranked frames (every schema valid, so their lanes stay live to the end
    # of each scan) interleaved with sampled ones; partition lengths are not
    # multiples of the batch sizes
    rng = random.Random(137)
    every_k = sweep_module.DEFAULT_KS
    for n, count, ks in ((1, 5, every_k), (2, 61, every_k), (3, 131, (8, 2, 5)), (4, 13, every_k),
                         (5, 5, every_k)):
        codes = []
        for code in helpers.oracle_sample_codes(n, count, 138 + n):
            codes += [code, frame_code(helpers.ranked_frame(rng, n))]
        config = SweepConfig(size=n, mode="random", count=len(codes), seed=0, ks=ks,
                             allow_large=n > 4).echo()
        expected = _per_frame_report(config, codes)
        assert expected["replay"]["attempted"] > 0 or n == 1
        for batch in (1, 7, sweep_module.BATCH_FRAMES):
            monkeypatch.setattr(sweep_module, "BATCH_FRAMES", batch)
            assert _frame_route(config, codes).to_json() == expected, (n, batch)
    # the profile route on exhaustive ranges around a ranked code, and
    # across the ends of spans of 4,096 codes (where the belief digits
    # change at two states)
    ranges = [(n, ks, max(ranked - 100, 0), min(ranked + 157, frame_count(n)))
              for n, ks in ((1, every_k), (2, every_k), (2, (8, 2, 5)))
              for ranked in [frame_code(helpers.ranked_frame(rng, n))]]
    ranges += [(2, every_k, 4096 - 70, 4096 + 131), (2, (4, 7), 8 * 4096 - 3, 8 * 4096 + 260)]
    for n, ks, lo, hi in ranges:
        codes = range(lo, hi)
        config = SweepConfig(size=n, ks=ks).echo()
        expected = _per_frame_report(config, codes)
        assert expected["replay"]["attempted"] > 0 or n == 1
        for batch in (1, 7, sweep_module.BATCH_FRAMES):
            monkeypatch.setattr(sweep_module, "BATCH_FRAMES", batch)
            assert sweep_module._fold_profiles(config, codes).to_json() == expected, (
                n, lo, batch)


# --- lane tables spelled from frame codes, and the masks read off them -------

def _assert_code_tables_match(n: int, codes, oracle: dict) -> None:
    """``_lane_tables`` of these codes against ``frame_tables`` of the
    decoded frames, and the schema evaluator's ``bel`` and ``bel_cond``
    read off them against ``helpers.oracle_tables`` of each frame, lane
    by lane (``oracle`` caches those by code)."""
    frames = tuple(frame_from_code(n, code) for code in codes)
    tables = sweep_module._lane_tables(n, *helpers.code_digits(n, codes))
    assert tables == frame_tables(frames, selection=True), (n, len(codes))
    evaluator, full = SchemaEvaluator(tables=tables), (1 << n) - 1
    for lane, (code, frame) in enumerate(zip(codes, frames)):
        if code not in oracle:
            oracle[code] = helpers.oracle_tables(frame)
        bel, bel_cond = oracle[code]
        shift = lane * n
        assert [m >> shift & full for m in evaluator.bel] == bel, (n, code)
        assert [[m >> shift & full for m in row] for row in evaluator.bel_cond] == bel_cond, (
            n, code)


def _omit_edges(n: int, codes) -> set:
    """Which edges of the superset DP's ``omit`` these codes' tables
    reach: "none" where some state x is in no lane's event (the ANDs are
    skipped), "every" where it is in every lane's event (``omit`` is 0)."""
    tables = sweep_module._lane_tables(n, *helpers.code_digits(n, codes))
    states = (1 << tables.lanes * n) - 1
    blocks = [u >> x * tables.lanes * n & states for u in (tables.belief, *tables.union[1:])
              for x in range(n)]
    return {edge for edge, block in (("none", 0), ("every", states)) if block in blocks}


def _edge_code(frame: Frame) -> int:
    """The code of ``frame`` with state 0 added to, and state n-1 (if not
    state 0) taken from, every belief set and selection."""
    low, high = 1, (1 << frame.n - 1) * (frame.n > 1)
    belief = [(b | low) & ~high for b in frame.belief]
    selection = [row[:1] + tuple((e | low) & ~high for e in row[1:]) for row in frame.selection]
    return frame_code(Frame(frame.states, belief, selection))


def test_code_tables_equal_frame_tables_all_two_state_frames():
    codes, oracle = range(frame_count(2)), {}
    for lo in range(0, len(codes), 250):
        _assert_code_tables_match(2, codes[lo : lo + 250], oracle)


def test_code_tables_equal_frame_tables_sampled_and_ranked():
    # sampled, ranked and mixed batches, and edge batches, where state 0 is
    # in every lane's events and state n-1 in none, so both edges of omit
    # run on every lane count
    rng = random.Random(149)
    for n in (1, 2, 3, 4, 5):
        sampled = helpers.oracle_sample_codes(n, 250, 150 + n)
        ranked = [frame_code(helpers.ranked_frame(rng, n)) for _ in range(250)]
        mixed = [code for pair in zip(sampled, ranked) for code in pair][:250]
        edge = [_edge_code(frame_from_code(n, code)) for code in sampled]
        oracle: dict = {}
        for codes in (sampled, ranked, mixed, edge):
            for lanes in (1, 7, 250):
                _assert_code_tables_match(n, codes[:lanes], oracle)
        for lanes in (1, 7, 250):
            assert _omit_edges(n, edge[:lanes]) == ({"every"} if n == 1 else {"every", "none"}), n
        # the bytes the block draw hands the table builder, against the
        # decoded frames of the per-digit draw
        drawn = next(sweep_module._sample_batches(n, 150 + n, 0, 250))
        frames = tuple(frame_from_code(n, code) for code in sampled)
        assert sweep_module._lane_tables(n, *drawn) == frame_tables(frames, selection=True), n


def test_batch_recipes_equal_countermodel_assignment(monkeypatch):
    # every state of every replay group a batch reads off its lane tables,
    # against the witness and recipe of the decoded frame
    real = sweep_module._replay_groups
    calls = []

    def recording(tables, axiom, hits):
        groups = real(tables, axiom, hits)
        calls.append((axiom, groups))
        return groups

    monkeypatch.setattr(sweep_module, "_replay_groups", recording)
    rng = random.Random(153)
    checked = 0
    for n, count in ((1, 30), (2, 400), (3, 300), (4, 60), (5, 8)):
        codes = helpers.oracle_sample_codes(n, count, 154 + n)
        codes += [frame_code(helpers.ranked_frame(rng, n)) for _ in range(5)]
        rng.shuffle(codes)
        for lo in range(0, len(codes), 250):
            batch = codes[lo : lo + 250]
            calls.clear()
            sweep_module._batch_verdicts(n, *helpers.code_digits(n, batch), sweep_module.DEFAULT_KS)
            assert len(calls) == len(sweep_module.DEFAULT_KS)
            for k, groups in calls:
                for assignment, states in groups.items():
                    for bit in bit_indices(states):
                        lane, s = divmod(bit, n)
                        frame = frame_from_code(n, batch[lane])
                        w = check_property(frame, PAIRED_PROPERTY[k])
                        assert countermodel_assignment(frame, k, w) == (assignment, s), (
                            n, batch[lane])
                        checked += 1
    assert checked > 3000


def _lane_by_lane_groups(n: int, codes, k: int) -> dict:
    """The replay groups of Pk's violations, assignment -> state mask,
    built from each decoded frame's witness and countermodel."""
    groups: dict = {}
    for lane, code in enumerate(codes):
        frame = frame_from_code(n, code)
        w = check_property(frame, PropertyId(f"P{k}"))
        if w is not None:
            assignment, s = countermodel_assignment(frame, AxiomId(f"A{k}"), w)
            groups[assignment] = groups.get(assignment, 0) | 1 << lane * n + s
    return groups


def test_replay_groups_equal_lane_by_lane_groups():
    # the mask split of _replay_groups against one countermodel per lane,
    # on sampled and ranked batches and batches that mix them
    rng = random.Random(157)
    most = 0  # the most classes one hit split into
    for n in (1, 2, 3, 4, 5):
        sampled = helpers.oracle_sample_codes(n, 250, 158 + n)
        ranked = [frame_code(helpers.ranked_frame(rng, n)) for _ in range(250)]
        mixed = [code for pair in zip(ranked, sampled) for code in pair][:250]
        for codes in (sampled, ranked, mixed):
            for lanes in (1, 7, 250):
                batch = codes[:lanes]
                tables = sweep_module._lane_tables(n, *helpers.code_digits(n, batch))
                properties = sweep_module.PropertyEvaluator(tables=tables)
                for k in sweep_module.DEFAULT_KS:
                    _, hits = properties.lane_hits(PropertyId(f"P{k}"))
                    groups = sweep_module._replay_groups(tables, AxiomId(f"A{k}"), hits)
                    assert groups == _lane_by_lane_groups(n, batch, k), (n, lanes, k)
                    for mask, *_ in hits:
                        most = max(most, sum(bool(states & mask) for states in groups.values()))
    assert most >= 3


def test_sweep_config_refuses_repeated_ks():
    for ks in ((2, 2), (2, 5, 2), (8, 8, 8)):
        with pytest.raises(ValueError, match="without repeats"):
            SweepConfig(size=2, ks=ks).validate()
        with pytest.raises(ValueError, match="without repeats"):
            sweep(SweepConfig(size=2, ks=ks))


def test_sweep_refuses_fewer_than_one_worker():
    cfg = SweepConfig(size=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sweep(cfg, workers=workers)


# --- grouped countermodel replays against one replay per violation ---------

def _per_violation_falsified(frame, ks) -> int:
    """Bit i set iff the countermodel of the violated property at position i
    of ks falsifies its axiom, replayed alone on a one-frame evaluator."""
    evaluator = SchemaEvaluator(frame)
    falsified = 0
    for i, k in enumerate(ks):
        w = check_property(frame, PropertyId(f"P{k}"))
        if w is None:
            continue
        axiom = AxiomId(f"A{k}")
        assignment, s = countermodel_assignment(frame, axiom, w)
        if not evaluator.holds_mask(axiom, assignment) >> s & 1:
            falsified |= 1 << i
    return falsified


def _assert_grouped_replays_match(frames, ks=sweep_module.DEFAULT_KS, batch=250) -> int:
    """Checks the ``falsified`` verdicts of ``_batch_verdicts`` on batches of
    ``batch`` frames; returns how many property violations were replayed."""
    replays = 0
    for lo in range(0, len(frames), batch):
        part = frames[lo : lo + batch]
        n = part[0].n
        digits = helpers.code_digits(n, map(frame_code, part))
        columns = sweep_module._batch_verdicts(n, *digits, ks)
        m = len(ks)
        for lane, frame in enumerate(part):
            falsified = sum((column >> lane * n & 1) << i for i, column in enumerate(columns[:m]))
            assert falsified == _per_violation_falsified(frame, ks), (frame_digest(frame), ks)
            replays += sum(column >> lane * n & 1 for column in columns[m : 2 * m])
    return replays


def test_grouped_replays_equal_per_violation_replays_all_two_state_frames():
    assert _assert_grouped_replays_match(helpers.enumerate_frames(2)) > 36864


def test_grouped_replays_equal_per_violation_replays_sampled_three_state_frames():
    frames = list(sample_frames(3, 1000, seed=42))
    assert _assert_grouped_replays_match(frames) == 5587
    # positions of ks, not k itself, tell the replays apart
    _assert_grouped_replays_match(frames[:250], ks=(3, 5, 3, 4))


def test_grouped_replays_equal_per_violation_replays_ranked_among_sampled():
    # ranked frames (every property holds) on 1 to 5 states next to sampled
    # ones, in batches that mix them
    rng = random.Random(145)
    for n, count in ((1, 20), (2, 125), (3, 125), (4, 30), (5, 3)):
        frames = []
        for frame in sample_frames(n, count, seed=146 + n):
            frames += [helpers.ranked_frame(rng, n), frame]
        for batch in (1, 7, 250):
            replays = _assert_grouped_replays_match(frames, batch=batch)
            assert replays > 0 or n == 1


def test_batch_replays_once_per_distinct_countermodel(monkeypatch):
    # the 1,000 seed-42 frames in batches of 250: 5,587 violations share
    # 526 distinct (axiom, assignment) countermodels within their batches
    codes = helpers.oracle_sample_codes(3, 1000, 42)
    replayed = []
    real = SchemaEvaluator.holds_mask

    def spy(self, k, assignment):
        replayed.append((lo, k, assignment))
        return real(self, k, assignment)

    monkeypatch.setattr(SchemaEvaluator, "holds_mask", spy)
    for lo in range(0, 1000, 250):
        sweep_module._batch_verdicts(3, *helpers.code_digits(3, codes[lo : lo + 250]),
                                     sweep_module.DEFAULT_KS)
    assert len(replayed) == len(set(replayed)) == 526


def test_partition_hashes_no_enum_per_frame(monkeypatch):
    # dispatch on axiom, property and postulate ids compares identities;
    # only per-batch lookups may hash an id
    hashes = [0]
    real = enum.Enum.__hash__

    def counting(self):
        hashes[0] += 1
        return real(self)

    config = SweepConfig(size=3, mode="random", count=1000, seed=42).echo()
    monkeypatch.setattr(enum.Enum, "__hash__", counting)
    sweep_module._run_partition(config, 0, 1000)
    monkeypatch.undo()
    assert hashes[0] <= 100


def _per_lane_report(config: dict, columns: list[int], stride: int, offsets: list[int],
                     codes: list[int]) -> dict:
    """The report on these verdict columns read one lane and one column at
    a time (column c of lane i at bit ``i * stride + offsets[c]``), one
    ``add_record`` per lane."""
    n, ks = config["size"], config["ks"]
    m = len(ks)
    report = Report.empty(config)
    for lane, code in enumerate(codes):
        mark = [bool(column >> lane * stride + at & 1) for column, at in zip(columns, offsets)]
        record = FrameRecord(
            f"{n}:{code}",
            {k: not mark[m + i] for i, k in enumerate(ks)},
            {k: not mark[2 * m + i] for i, k in enumerate(ks)},
            {k: not mark[3 * m + i] for i, k in enumerate(ks)},
            {name: j > 0 or not mark[4 * m]
             for j, name in enumerate(sweep_module.ALWAYS_VALID_NAMES)},
            [(k, mark[i]) for i, k in enumerate(ks) if mark[m + i]],
            [],
        )
        record.discrepancies = sweep_module._discrepancies(record)
        report.add_record(record)
    return report.to_json()


def test_column_count_equals_a_per_lane_loop():
    # the one counter of both routes, against reading each lane's marks one
    # at a time: random columns (most lanes flagged, one column all zero),
    # columns that agree but for a few lanes, and all-zero ones; the fold's
    # layout (stride 8, the columns of position i of ks at bit i, A1 at bit
    # 7) next to the batch's
    rng = random.Random(146)
    flagged = 0
    for n in (1, 2, 3, 4, 5):
        for lanes in (1, 7, 250):
            codes = [rng.randrange(frame_count(n)) for _ in range(lanes)]
            for ks in (sweep_module.DEFAULT_KS, (8, 4), (4,)):
                config = SweepConfig(size=n, ks=ks, allow_large=True).echo()
                m = len(ks)
                for stride, offsets in ((n, [0] * (4 * m + 1)), (8, [*range(m)] * 4 + [7])):
                    def marked(rate: float) -> int:
                        """A column that marks each lane with probability ``rate``."""
                        return sum(1 << i * stride for i in range(lanes) if rng.random() < rate)

                    failed = [marked(0.5) for _ in range(m)]
                    cases = {  # (Pk failed, replay falsified, then Ak, Kk and A1 columns)
                        "random": (failed, [f & marked(0.8) for f in failed],
                                   [0] + [marked(0.5) for _ in range(2 * m)]),
                        "agreeing": (failed, [f & ~marked(0.03) for f in failed],
                                     [f ^ marked(0.03) for f in failed * 2] + [marked(0.03)]),
                        "zero": ([0] * m, [0] * m, [0] * (2 * m + 1)),
                    }
                    for kind, (fails, falsified, others) in cases.items():
                        columns = [*falsified, *fails, *others]
                        placed = [column << at for column, at in zip(columns, offsets)]
                        report = Report.empty(config)
                        sweep_module._count_columns(report, placed, lanes, stride, codes.__getitem__)
                        expected = _per_lane_report(config, placed, stride, offsets, codes)
                        assert report.to_json() == expected, (n, lanes, ks, stride, kind)
                        flagged += len(expected["discrepancies"])
    assert flagged > 1000

"""Finite-model workbench for belief revision over Kripke-Lewis frames."""

from .formula import (
    And,
    Atom,
    Bel,
    Box,
    Cond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SyntacticClass,
    atoms,
    classify,
    desugar,
    evaluate,
    is_tautology,
    is_wellformed,
)
from .parser import ParseError, StratificationError, format_formula, parse
from .model import (
    EmptyEventError,
    Frame,
    FrameIssue,
    FrameValidationError,
    Model,
    Witness,
    canonical_events,
    frame_to_json,
    load_frame,
    load_model,
    model_to_json,
    revised_support,
    truth,
    truth_set,
    validate_frame,
)
from .properties import PropertyEvaluator, PropertyId, check_property, replay_witness
from .axioms import (
    AxiomId,
    MismatchedWitnessError,
    PAIRED_PROPERTY,
    SchemaEvaluator,
    axiom_instance,
    countermodel_from_witness,
    rule_valid_on_frame,
    schema_valid_on_frame,
)
from .revision import (
    AgmPostulateId,
    PostulateEvaluator,
    agm_event_check,
    expand_membership,
    in_belief_set,
    revise_membership,
)
from .correspondence import (
    FrameRecord,
    Report,
    SweepConfig,
    SweepError,
    enumerate_frames,
    frame_code,
    frame_count,
    frame_digest,
    frame_from_code,
    merge_reports,
    sample_frames,
    sweep,
    triple_check,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "Bel", "Box", "Cond", "Formula", "Iff", "Implies", "Not", "Or",
    "SyntacticClass", "atoms", "classify", "desugar", "evaluate", "is_tautology",
    "is_wellformed",
    "ParseError", "StratificationError", "format_formula", "parse",
    "EmptyEventError", "Frame", "FrameIssue", "FrameValidationError", "Model",
    "Witness", "canonical_events", "frame_to_json", "load_frame", "load_model",
    "model_to_json", "revised_support", "truth", "truth_set", "validate_frame",
    "PropertyEvaluator", "PropertyId", "check_property", "replay_witness",
    "AxiomId", "MismatchedWitnessError", "PAIRED_PROPERTY", "SchemaEvaluator",
    "axiom_instance", "countermodel_from_witness", "rule_valid_on_frame",
    "schema_valid_on_frame",
    "AgmPostulateId", "PostulateEvaluator", "agm_event_check", "expand_membership",
    "in_belief_set", "revise_membership",
    "FrameRecord", "Report", "SweepConfig", "SweepError", "enumerate_frames",
    "frame_code", "frame_count", "frame_digest", "frame_from_code",
    "merge_reports", "sample_frames", "sweep", "triple_check",
]

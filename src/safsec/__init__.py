"""Integrated safety/security assurance analysis toolkit."""

from .confidence import (
    SecurityVerdict,
    aggregate_gsn,
    apply_security_links,
    opinion_from_evidence,
    update_confidence,
)
from .conflicts import check_pair, conflict_candidates, find_contradictions
from .derive import derive_adt, fmea_attack_subtree, voter_attack_subtree
from .adteval import evaluate, verdict
from .fmea import compute_rpn, rank_failures
from .fta import cut_sets, minimal_cut_sets
from .model import ConfidenceTriple, DefeaterCount, Document
from .modelfile import parse, print_document
from .validate import validate_block, validate_model

__version__ = "0.1.0"

__all__ = [
    "ConfidenceTriple",
    "DefeaterCount",
    "Document",
    "SecurityVerdict",
    "aggregate_gsn",
    "apply_security_links",
    "check_pair",
    "compute_rpn",
    "conflict_candidates",
    "cut_sets",
    "derive_adt",
    "evaluate",
    "find_contradictions",
    "fmea_attack_subtree",
    "minimal_cut_sets",
    "opinion_from_evidence",
    "parse",
    "print_document",
    "rank_failures",
    "update_confidence",
    "validate_block",
    "validate_model",
    "verdict",
    "voter_attack_subtree",
]

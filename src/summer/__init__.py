"""Format-agnostic token-level merge engine.

Decomposes one branch's changes into string-rewriting rules and move rules,
then replays them on the other branch.
"""

from .align import Bucket, BucketSet, dissect, line_diff
from .engine import (
    Conflict,
    DirectionReason,
    FileAdd,
    FileDelete,
    FileRename,
    MergeDirection,
    MergeOutcome,
    Side,
    Snapshot,
    apply_steps,
    decompose,
    determine_direction,
    map_to_buckets,
    merge,
)
from .moves import MovePattern, MoveRule, get_precise_move
from .rules import (
    RewriteRule,
    RuleMetrics,
    classification_metrics,
    decompose_rewrites,
    expand_edit,
    get_precise_rewriting,
    sort_and_filter,
)
from .tokens import CharCategory, Joined, Token, TokenString, classify_char, tokenize

__version__ = "0.1.0"

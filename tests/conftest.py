"""Shared golden fixtures.

The module-rename corpus reconstructs a Go module-path rename plus file
rename plus import insertion. The body is flush-left and free of package
qualifiers so that the documented rule metrics hold exactly; the content has
exactly 7 newline tokens (see tests/test_rules.py for the pinned counts).
"""

from __future__ import annotations

import os

import pytest

import summer
from summer.align import BucketSet, dissect
from summer.tokens import tokenize

# Interpreters the tests spawn (`python -m summer`) import the package the
# tests import, also from a checkout that is not installed.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(summer.__file__)), os.environ.get("PYTHONPATH")])
)

RENAME_SUBMODULE_SRC = "github.com/txaty/bigcomplex"
RENAME_SUBMODULE_TGT = "gitlab.com/txaty/bigcomplex"

RENAME_NAME_SRC = "bc.go"
RENAME_NAME_TGT = "Program.go"

RENAME_CONTENT_SRC = (
    'import bc "github.com/txaty/bigcomplex"\n'
    "func main() {\n"
    "g1 := NewGaussianInt(5, 6) // 5 + 6i\n"
    "g2 := NewGaussianInt(1, 2) // 1 + 2i\n"
    "div := new(GaussianInt).Div(g2, g1)\n"
    "fmt.Println(div)\n"
    "}\n"
)
RENAME_CONTENT_TGT = (
    'import bc "gitlab.com/txaty/bigcomplex"\n'
    'import "fmt"\n'
    "func main() {\n"
    "g1 := NewGaussianInt(5, 6) // 5 + 6i\n"
    "g2 := NewGaussianInt(1, 2) // 1 + 2i\n"
    "res := new(GaussianInt).Div(g2, g1)\n"
    "fmt.Println(res)\n"
    "}\n"
)


def token_offsets(s: str) -> set[int]:
    """Token boundaries of s, read off the tokenizer: both ends and every
    token's start offset."""
    return {0, len(s)} | {t.offset for t in tokenize(s).tokens}


# The kinds of edit atom, as tests label them.
SUBSTITUTION, INSERTION, DELETION = "substitution", "insertion", "deletion"


def atom_kind(atom):
    """An atom's kind read from its sides; None for an identity run."""
    if atom.lhs == atom.rhs:
        return None
    if not atom.lhs:
        return INSERTION
    return DELETION if not atom.rhs else SUBSTITUTION


def core_atom(buckets, bucket_index: int, kind) -> int:
    """Atom index of the first edit of `kind` (None: an identity run) in a
    bucket, as candidate synthesis takes it."""
    for core, atom in enumerate(buckets[bucket_index].atoms):
        if atom_kind(atom) == kind:
            return core
    raise LookupError(kind)


@pytest.fixture
def rename_corpus() -> BucketSet:
    return BucketSet(
        (
            dissect(RENAME_SUBMODULE_SRC, RENAME_SUBMODULE_TGT, "submodule"),
            dissect(RENAME_NAME_SRC, RENAME_NAME_TGT, "name:bc.go"),
            dissect(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT, "content:bc.go"),
        )
    )


# Method extraction trio: the left branch pulls two statements into a new
# method; the right branch switches the statements to receiver style.
EXTRACT_BASE = (
    "\tpublic void addListener(O obj) {\n"
    "\t\tnotNull(obj);\n"
    "\t\tvalidate(obj);\n"
    "\t\tListeners.add(obj.getListener());\n"
    "\t}\n"
    "\n"
    "}\n"
)
EXTRACT_LEFT = (
    "\tpublic void addListener(O obj) {\n"
    "\t\trunCheck(obj);\n"
    "\t\tListeners.add(obj.getListener());\n"
    "\t}\n"
    "\n"
    "\n"
    "\tpublic void runCheck(O obj) {\n"
    "\t\tnotNull(obj);\n"
    "\t\tvalidate(obj);\n"
    "\t}\n"
    "}\n"
)
EXTRACT_RIGHT = (
    "\tpublic void addListener(O obj) {\n"
    "\t\tobj.notNull();\n"
    "\t\tobj.validate();\n"
    "\t\tListeners.add(obj.getListener());\n"
    "\t}\n"
    "\n"
    "}\n"
)
# The move's application to the right revision, derived by hand from the
# documented semantics (the consequent carries the whole inserted block, so
# the move alone completes the extraction with the captured local wording).
EXTRACT_RIGHT_AFTER_MOVE = (
    "\tpublic void addListener(O obj) {\n"
    "\t\trunCheck(obj);\n"
    "\t\tListeners.add(obj.getListener());\n"
    "\t}\n"
    "\n"
    "\n"
    "\tpublic void runCheck(O obj) {\n"
    "\t\tobj.notNull();\n"
    "\t\tobj.validate();\n"
    "\t}\n"
    "}\n"
)
EXTRACT_EXPECTED_MERGE = EXTRACT_RIGHT_AFTER_MOVE
EXTRACT_CAPTURE_ON_RIGHT = "obj.notNull();\n\t\tobj.validate();"
EXTRACT_SHARED = "notNull(obj);\n\t\tvalidate(obj);"

"""Prompt template assets: loading, slot filling, and reading slots back."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from string import Template

# Template names, one file per pipeline or evaluation prompt.
TRANSLATE_TO_PIVOT = "translate_to_pivot"
TABLE_TO_KG = "table_to_kg"
MERGE_KGS = "merge_kgs"
KG_TO_TABLE = "kg_to_table"
TRANSLATE_FROM_PIVOT = "translate_from_pivot"
ALIGN = "align"
ALIGN_UPDATE = "align_update"
DIRECT = "direct"
DIRECT_DECOMPOSE = "direct_decompose"
EVALUATE = "evaluate"

# Instruction used for the joint align-update variant, where the model builds
# the alignments itself instead of receiving them.
SELF_ALIGN_INSTRUCTION = (
    "First create these alignments yourself by matching similar information "
    "between Table A and Table B, then apply the steps above using your own alignments."
)


@lru_cache(maxsize=None)
def template_text(name: str) -> str:
    return resources.files("tablesync.prompts").joinpath(f"{name}.txt").read_text("utf-8")


def fill(name: str, **slots: str) -> str:
    """Fill a template's named slots; unknown or missing slots raise KeyError."""
    return Template(template_text(name)).substitute(**slots)


@lru_cache(maxsize=None)
def _split(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Template text cut at its slots: the literals, one more than the slot
    names, and the slot names in order."""
    literals, names, start = [""], [], 0
    for match in Template.pattern.finditer(text):
        literals[-1] += text[start : match.start()]
        start = match.end()
        slot = match.group("named") or match.group("braced")
        if slot is None:  # "$$" fills in as one "$"
            literals[-1] += "$"
        else:
            names.append(slot)
            literals.append("")
    literals[-1] += text[start:]
    return tuple(literals), tuple(names)


def slots_of(name: str, prompt: str) -> dict[str, str] | None:
    """The slot values fill(name, ...) put into prompt; None when prompt is not
    a filling of that template.

    The template is split at each $slot into literal, slot, literal, and so on.
    The prompt must start with the first literal and end with the last one.
    Each slot ends at the first occurrence of the literal that follows it (the
    last slot, where the final literal begins), and a slot that appears more
    than once must hold the same text each time. So the inverse is exact for
    any wording, as long as no slot value contains the literal that follows it.
    """
    literals, names = _split(template_text(name))
    first, last = literals[0], literals[-1]
    end = len(prompt) - len(last)
    if end < len(first) or not prompt.startswith(first) or not prompt.endswith(last):
        return None
    slots: dict[str, str] = {}
    position = len(first)
    for index, slot in enumerate(names, 1):
        literal = literals[index]
        stop = end if index == len(names) else prompt.find(literal, position, end)
        if stop < 0:
            return None
        value = prompt[position:stop]
        if slots.setdefault(slot, value) != value:
            return None
        position = stop + len(literal)
    return slots

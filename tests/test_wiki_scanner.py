"""`wiki._template_params` against the two scanners it replaced.

The reference keeps them verbatim: one found the template body by its brace
depth, the other split that body on pipes at the top level of {{ }} and [[ ]].
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync.errors import NoInfobox
from tablesync.wiki import _template_params


def _template_region(text: str, start: int) -> str:
    depth = 0
    i = start
    n = len(text)
    while i < n - 1:
        pair = text[i : i + 2]
        if pair == "{{":
            depth += 1
            i += 2
            continue
        if pair == "}}":
            depth -= 1
            if depth == 0:
                return text[start + 2 : i]
            i += 2
            continue
        i += 1
    raise NoInfobox("unbalanced infobox template")


def _split_params(body: str) -> list[str]:
    parts: list[str] = []
    depth_braces = depth_links = 0
    current: list[str] = []
    i = 0
    n = len(body)
    while i < n:
        pair = body[i : i + 2]
        if pair == "{{":
            depth_braces += 1
            current.append(pair)
            i += 2
            continue
        if pair == "}}":
            depth_braces -= 1
            current.append(pair)
            i += 2
            continue
        if pair == "[[":
            depth_links += 1
            current.append(pair)
            i += 2
            continue
        if pair == "]]":
            depth_links -= 1
            current.append(pair)
            i += 2
            continue
        ch = body[i]
        if ch == "|" and depth_braces == 0 and depth_links == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def reference_params(text: str, start: int) -> list[str] | None:
    try:
        return _split_params(_template_region(text, start))
    except NoInfobox:
        return None


def params(text: str, start: int) -> list[str] | None:
    try:
        return _template_params(text, start)
    except NoInfobox:
        return None


# Runs of the tokens the scanners act on, then closers, so that most texts
# hold a matching "}}" after nesting of either kind.
tokens = st.sampled_from(["{{", "}}", "[[", "]]", "{", "}", "[", "]", "|", "=", "a"])
markup = st.lists(tokens, max_size=30).map("".join)


@given(markup, markup, st.integers(0, 4))
@settings(max_examples=1000)
def test_equals_the_two_scanners(prefix, body, closers):
    text = prefix + "{{" + body + "}}" * closers
    start = len(prefix)
    assert params(text, start) == reference_params(text, start)


def test_nested_pipes_stay_in_their_parameter():
    text = "x {{Infobox|a = [[b|c]]|d = {{e|f}}|g}} h}}"
    assert _template_params(text, 2) == ["Infobox", "a = [[b|c]]", "d = {{e|f}}", "g"]

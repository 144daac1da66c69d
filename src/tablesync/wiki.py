"""MediaWiki revision fetching and infobox extraction."""

from __future__ import annotations

import json
import re
import time
import urllib.parse

from .errors import NetworkError, NoInfobox, PageNotFound
from .tables import InfoTable, TableRow

DEFAULT_API_TEMPLATE = "https://{lang}.wikipedia.org/w/api.php"
USER_AGENT = "tablesync/0.1 (table synchronization research tooling)"
# Least time between the starts of two requests of one client, and the socket timeout.
MIN_INTERVAL_S = 1.0
TIMEOUT_S = 30.0

_INFOBOX_NAME = re.compile(r"\s*infobox\b", re.IGNORECASE)
_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
_REF = re.compile(r"<ref[^>/]*/>|<ref[^>]*>.*?</ref>", re.DOTALL | re.IGNORECASE)
_LINK = re.compile(r"\[\[([^\]|]*)\|([^\]]*)\]\]|\[\[([^\]]*)\]\]")
_BOLD_ITALIC = re.compile(r"'{2,}")
_BREAK = re.compile(r"<br\s*/?>", re.IGNORECASE)


def _strip_markup(value: str) -> str:
    value = _COMMENT.sub("", value)
    value = _REF.sub("", value)
    value = _BREAK.sub(", ", value)
    value = _LINK.sub(lambda m: m.group(2) if m.group(2) is not None else (m.group(1) or m.group(3) or ""), value)
    value = _BOLD_ITALIC.sub("", value)
    return re.sub(r"\s+", " ", value).strip()


# Two-character tokens that open or close a nesting level: (braces, links).
_NESTING = {"{{": (1, 0), "}}": (-1, 0), "[[": (0, 1), "]]": (0, -1)}


def _template_params(text: str, start: int) -> list[str]:
    """Parameters of the template whose "{{" is at start: its body up to the
    matching "}}", split on pipes outside nested {{ }} and [[ ]]."""
    parts: list[str] = []
    braces, links = 1, 0
    mark = i = start + 2
    while i < len(text):
        step = _NESTING.get(text[i : i + 2])
        if step is None:
            if text[i] == "|" and braces == 1 and links == 0:
                parts.append(text[mark:i])
                mark = i + 1
            i += 1
            continue
        braces += step[0]
        links += step[1]
        if braces == 0:
            parts.append(text[mark:i])
            return parts
        i += 2
    raise NoInfobox("unbalanced infobox template")


def extract_infobox_rows(wikitext: str) -> tuple[TableRow, ...]:
    """Rows from the first infobox template's top-level named parameters.

    Values holding nested templates stay raw.
    """
    search = 0
    while True:
        start = wikitext.find("{{", search)
        if start == -1:
            raise NoInfobox("no infobox template in wikitext")
        if _INFOBOX_NAME.match(wikitext, start + 2):
            break
        search = start + 2
    rows: list[TableRow] = []
    for param in _template_params(wikitext, start)[1:]:  # part 0 is the template name
        name, sep, raw = param.partition("=")
        name = name.strip()
        if not sep or not name:
            continue
        raw = raw.strip()
        if "{{" in raw:
            value = re.sub(r"\s+", " ", _COMMENT.sub("", raw)).strip()
        else:
            value = _strip_markup(raw)
        rows.append(TableRow(name, value))
    return tuple(rows)


class MediaWikiClient:
    """Action-API client fetching the infobox of a page revision at a timestamp."""

    def __init__(self, api_template: str) -> None:
        self.api_template = api_template
        self._last_request = 0.0

    def _throttle(self) -> None:
        wait = MIN_INTERVAL_S - (time.monotonic() - self._last_request)
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def fetch_revision(
        self,
        title: str,
        lang: str,
        as_of: str,
        category: str = "Uncategorized",
    ) -> InfoTable:
        """Infobox of the latest revision at or before as_of, as an InfoTable."""
        params = {
            "action": "query",
            "format": "json",
            "formatversion": "2",
            "prop": "revisions",
            "titles": title,
            "rvprop": "ids|timestamp|content",
            "rvslots": "main",
            "rvlimit": "1",
            "rvdir": "older",
            "rvstart": as_of,
        }
        # Imported where HTTP is used, so other commands start without it.
        import http.client
        import urllib.request

        base = self.api_template.format(lang=lang)
        url = base + ("&" if "?" in base else "?") + urllib.parse.urlencode(params)
        self._throttle()
        try:
            request = urllib.request.Request(url, headers={"User-Agent": USER_AGENT})
            with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                data = json.load(response)
        except (OSError, ValueError, RecursionError, http.client.HTTPException) as exc:  # HTTP, URL, JSON errors
            raise NetworkError(f"wiki API request failed: {exc}") from exc
        try:
            pages = data.get("query", {}).get("pages", [])
            if not pages or pages[0].get("missing"):
                raise PageNotFound(f"{title!r} does not exist on {lang}.wikipedia")
            revisions = pages[0].get("revisions") or []
            if not revisions:
                raise PageNotFound(f"{title!r} has no revision at or before {as_of}")
            revision = revisions[0]
            content = revision.get("slots", {}).get("main", {}).get("content", "")
            tag = f"{revision.get('revid')}@{revision.get('timestamp')}"
        except (AttributeError, LookupError, TypeError) as exc:  # JSON of another shape
            raise NetworkError(f"wiki API answer has an unexpected shape: {exc!r}") from exc
        if not isinstance(content, str):
            raise NetworkError(f"revision content is {type(content).__name__}, not text")
        try:  # json turns a "\ud800" escape into a lone surrogate, which no writer takes
            (tag + content).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise NetworkError(f"revision is not UTF-8 text: {exc.reason}") from None
        return InfoTable(title, lang, category, extract_infobox_rows(content), revision_tag=tag)

import json
import urllib.parse

import pytest

from tablesync.errors import NetworkError, NoInfobox, PageNotFound
from tablesync.wiki import USER_AGENT, MediaWikiClient, extract_infobox_rows

WIKITEXT = """
'''Musterstadt''' is a city.
{{Infobox settlement
| name = Musterstadt
| population_total = 230000 <ref>census</ref>
| leader_name = [[Eva Neu]]
| country = [[Germany|Federal Republic]]
| coordinates = {{coord|52|31|N|13|24|E}}
| image =
}}
Some article text.
"""


class TestInfoboxExtraction:
    def test_named_parameters(self):
        rows, lints = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["name"] == "Musterstadt"
        assert pairs["population_total"] == "230000"
        assert pairs["leader_name"] == "Eva Neu"
        assert pairs["country"] == "Federal Republic"

    def test_nested_template_kept_raw_and_linted(self):
        rows, lints = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["coordinates"].startswith("{{coord")
        assert any("coordinates" in lint for lint in lints)

    def test_empty_value_preserved(self):
        rows, _ = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["image"] == ""

    def test_no_infobox(self):
        with pytest.raises(NoInfobox):
            extract_infobox_rows("just text {{cite web|url=x}}")

    def test_case_insensitive_template_name(self):
        rows, _ = extract_infobox_rows("{{infobox person|name=Ada}}")
        assert rows[0].as_pair() == ("name", "Ada")


def page_payload(content, revid=123, timestamp="2018-06-01T00:00:00Z"):
    return {
        "query": {
            "pages": [
                {
                    "title": "Musterstadt",
                    "revisions": [
                        {
                            "revid": revid,
                            "timestamp": timestamp,
                            "slots": {"main": {"content": content}},
                        }
                    ],
                }
            ]
        }
    }


class TestFetchRevision:
    """MediaWikiClient against a loopback server (see conftest.ScriptedServer)."""

    def fetch(self, server, payload, status=200, title="Musterstadt", **kwargs):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        server.script = [(status, body)]
        client = MediaWikiClient(api_template=f"{server.base}/{{lang}}/api.php", min_interval_s=0.0)
        return client.fetch_revision(title, "en", "2018-07-01T00:00:00Z", **kwargs)

    def test_recorded_response_to_rows(self, http_server):
        table = self.fetch(http_server, page_payload(WIKITEXT), category="City")
        assert table.language == "en"
        assert table.category == "City"
        assert table.revision_tag == "123@2018-06-01T00:00:00Z"
        assert dict(r.as_pair() for r in table.rows)["name"] == "Musterstadt"

    def test_timestamp_params_sent(self, http_server):
        self.fetch(http_server, page_payload(WIKITEXT))
        ((method, path, headers, _, _),) = http_server.seen
        url = urllib.parse.urlsplit(path)
        params = dict(urllib.parse.parse_qsl(url.query))
        assert (method, url.path) == ("GET", "/en/api.php")
        assert params["rvstart"] == "2018-07-01T00:00:00Z"
        assert params["rvdir"] == "older"
        assert params["titles"] == "Musterstadt"
        assert headers["User-Agent"] == USER_AGENT

    def test_missing_page(self, http_server):
        with pytest.raises(PageNotFound):
            self.fetch(http_server, {"query": {"pages": [{"title": "x", "missing": True}]}})

    def test_no_revision_before_timestamp(self, http_server):
        with pytest.raises(PageNotFound):
            self.fetch(http_server, {"query": {"pages": [{"title": "x", "revisions": []}]}})

    def test_page_without_infobox(self, http_server):
        with pytest.raises(NoInfobox):
            self.fetch(http_server, page_payload("plain article text"))

    @pytest.mark.parametrize(
        "status, payload",
        [(503, {"error": "busy"}), (200, b"<html>not json"), (200, b"[1, 2]")],
        ids=["http-error", "not-json", "not-an-object"],
    )
    def test_http_and_json_errors_are_network_errors(self, http_server, status, payload):
        with pytest.raises(NetworkError):
            self.fetch(http_server, payload, status=status)

    def test_network_error_wrapped(self, closed_port, no_proxy_env):
        client = MediaWikiClient(api_template=f"http://127.0.0.1:{closed_port}/api.php", min_interval_s=0.0)
        with pytest.raises(NetworkError):
            client.fetch_revision("x", "en", "2018-01-01T00:00:00Z")

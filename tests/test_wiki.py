import json
import urllib.parse

import pytest

from tablesync.errors import NetworkError, NoInfobox, PageNotFound
from tablesync import cli, wiki
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
        rows = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["name"] == "Musterstadt"
        assert pairs["population_total"] == "230000"
        assert pairs["leader_name"] == "Eva Neu"
        assert pairs["country"] == "Federal Republic"

    def test_nested_template_kept_raw(self):
        rows = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["coordinates"].startswith("{{coord")

    def test_empty_value_preserved(self):
        rows = extract_infobox_rows(WIKITEXT)
        pairs = dict(r.as_pair() for r in rows)
        assert pairs["image"] == ""

    def test_no_infobox(self):
        with pytest.raises(NoInfobox):
            extract_infobox_rows("just text {{cite web|url=x}}")

    def test_case_insensitive_template_name(self):
        rows = extract_infobox_rows("{{infobox person|name=Ada}}")
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

    @pytest.fixture(autouse=True)
    def no_pacing(self, monkeypatch):
        monkeypatch.setattr(wiki, "MIN_INTERVAL_S", 0.0)

    def fetch(self, server, payload, status=200, title="Musterstadt", **kwargs):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        server.script = [(status, body)]
        client = MediaWikiClient(api_template=f"{server.base}/{{lang}}/api.php")
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
        [
            (503, {"error": "busy"}),
            (200, b"<html>not json"),
            (200, b"[1, 2]"),
            (200, {"query": []}),
            (200, {"query": {"pages": ["x"]}}),
            (200, {"query": {"pages": [{"revisions": ["r"]}]}}),
            (200, page_payload(5)),
            (200, b"[" * 100_000 + b"]" * 100_000),
            (200, page_payload(WIKITEXT, timestamp="\ud800")),
        ],
        ids=[
            "http-error", "not-json", "not-an-object", "query-a-list", "page-a-string",
            "revision-a-string", "content-a-number", "deeply-nested", "timestamp-a-lone-surrogate",
        ],
    )
    def test_http_and_json_errors_are_network_errors(self, http_server, status, payload):
        with pytest.raises(NetworkError):
            self.fetch(http_server, payload, status=status)

    def test_lone_surrogate_in_content_fails_fetch(self, http_server, tmp_path, capsys):
        """json decodes a "\\ud800" escape into a lone surrogate, which no UTF-8 writer takes."""
        payload = page_payload(WIKITEXT.replace("Musterstadt", "Muster\ud800stadt"))
        http_server.script = [(200, json.dumps(payload).encode())]
        out = tmp_path / "x.table"
        code = cli.main([
            "fetch", "--title", "Musterstadt", "--lang", "en", "--as-of", "2018-07-01T00:00:00Z",
            "--api-template", f"{http_server.base}/{{lang}}/api.php", "--out", str(out),
        ])
        assert code == cli.EXIT_PARTIAL
        assert capsys.readouterr().err.startswith("error: revision is not UTF-8 text")
        assert list(tmp_path.iterdir()) == []

    def test_network_error_wrapped(self, closed_port, no_proxy_env):
        client = MediaWikiClient(api_template=f"http://127.0.0.1:{closed_port}/api.php")
        with pytest.raises(NetworkError):
            client.fetch_revision("x", "en", "2018-01-01T00:00:00Z")

    def test_fetches_of_one_client_are_paced(self, http_server, monkeypatch):
        class Clock:
            now, slept = 1000.0, []

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.slept.append(seconds)
                self.now += seconds

        clock = Clock()
        monkeypatch.setattr(wiki, "time", clock)
        monkeypatch.setattr(wiki, "MIN_INTERVAL_S", 5.0)
        http_server.script = [(200, json.dumps(page_payload(WIKITEXT)).encode())] * 2
        client = MediaWikiClient(api_template=f"{http_server.base}/{{lang}}/api.php")
        client.fetch_revision("Musterstadt", "en", "2018-07-01T00:00:00Z")
        assert clock.slept == []
        clock.now += 2.0  # the first answer took 2 s
        client.fetch_revision("Musterstadt", "en", "2018-07-01T00:00:00Z")
        assert clock.slept == [3.0]  # the rest of the interval
        assert len(http_server.seen) == 2

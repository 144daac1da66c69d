"""Fault schedule and wire behaviour of the benchmark's fake chat-completion server."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from perfbench import fake_llm

MERGE_PROMPT = "Merge.\nGraph A:\n{}\nGraph B:\n{}\nEntity Zorvek Talum"
KG_TO_TABLE_PROMPT = "Knowledge Graph G:\n{\"Name\": \"Zorvek Talum\"}"
EVALUATE_PROMPT = "Table 1:\n[[\"Name\",\"Zorvek Talum\"]]\nTable 2:\n[[\"Name\",\"Zorvek Talum\"]]"
TRANSLATE_PROMPT = "Translate.\nTable:\n[[\"Name\",\"Zorvek Talum\"]]"
NAME = ("Zorvek Talum",)


def test_poisoned_merge_prompt_faults_on_every_repeat():
    for repeat in range(4):
        assert fake_llm.fault_for(MERGE_PROMPT, repeat, "Zorvek Talum", ())


def test_poison_spares_other_stages():
    for prompt in (KG_TO_TABLE_PROMPT, EVALUATE_PROMPT, TRANSLATE_PROMPT):
        assert not fake_llm.fault_for(prompt, 0, "Zorvek Talum", ())


def test_flaky_instance_fails_once_in_kg_to_table_and_evaluation():
    for prompt in (KG_TO_TABLE_PROMPT, EVALUATE_PROMPT):
        assert fake_llm.fault_for(prompt, 0, "", NAME)
        assert not fake_llm.fault_for(prompt, 1, "", NAME)
    assert not fake_llm.fault_for(TRANSLATE_PROMPT, 0, "", NAME)
    assert not fake_llm.fault_for(MERGE_PROMPT, 0, "", NAME)
    assert not fake_llm.fault_for(KG_TO_TABLE_PROMPT, 0, "", ("Other Name",))


def test_server_applies_schedule_per_namespace_and_counts():
    fake = fake_llm.FakeLLM(lambda prompt, *_: f"answer to {prompt}", "", NAME, delay_s=0.01)
    server = fake_llm.make_server(fake)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    prompt = KG_TO_TABLE_PROMPT
    body = json.dumps(
        {"model": "m", "messages": [{"role": "user", "content": prompt}], "temperature": 0.0, "max_tokens": 8}
    ).encode()

    def post(namespace: str) -> tuple[str, float]:
        request = urllib.request.Request(
            f"{base}/{namespace}/chat/completions", data=body, headers={"Content-Type": "application/json"}
        )
        start = time.monotonic()
        with urllib.request.urlopen(request, timeout=10) as response:
            content = json.load(response)["choices"][0]["message"]["content"]
        return content, time.monotonic() - start

    try:
        first, elapsed = post("a")
        second, _ = post("a")
        fresh, _ = post("b")
        with urllib.request.urlopen(f"{base}/stats/a", timeout=10) as response:
            stats = json.load(response)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert first == fake_llm.GARBAGE
    assert elapsed >= 0.01
    assert second == f"answer to {prompt}"
    assert fresh == fake_llm.GARBAGE
    assert stats == {"requests": 2, "faults_served": 1}

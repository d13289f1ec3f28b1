from __future__ import annotations

import json
import threading
import time

import pytest

from conftest import JsonHandler, chat_completion
from ltakit.errors import DataError, LlmError, ProtocolError, ScriptExhausted, TransportError
from ltakit.llm_client import (
    Failure,
    LlmClient,
    LlmConfig,
    MockLlmClient,
    load_script,
)


def mock_config(**overrides):
    base = dict(
        endpoint_url="mock://local",
        model_name="scripted-mock",
        backoff_base=0.0,
    )
    base.update(overrides)
    return LlmConfig(**base)


class TestConfig:
    def test_defaults(self):
        config = LlmConfig("http://localhost:1", "m")
        assert config.temperature == 0.7
        assert config.max_retries == 3
        assert config.auth_token_env_var == ""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"max_retries": -1},
            {"max_tokens": 0},
            {"timeout": 0},
            {"timeout": -1.0},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(DataError):
            LlmConfig("http://localhost:1", "m", **kwargs)

    @pytest.mark.parametrize(
        "url",
        ["http://localhost:1/v1", "https://example.invalid/v1", "HTTP://h", "http://[::1]:8000/v1", "http://h/a%20b"],
    )
    def test_live_client_accepts_http_endpoints(self, url):
        assert LlmClient(LlmConfig(url, "m")).config.endpoint_url == url

    @pytest.mark.parametrize(
        "url",
        ["file:///etc/hostname", "ftp://localhost/v1", "data:,x", "localhost:8000/v1", "http://[::1", "", "http:///v1"],
    )
    def test_live_client_rejects_other_endpoints(self, url):
        with pytest.raises(DataError, match="endpoint URL must be http or https"):
            LlmClient(LlmConfig(url, "m"))

    @pytest.mark.parametrize(
        "url",
        ["http://127.0.0.1:9/a b", "http://127.0.0.1:9/v1?q=a b", "http://127.0.0.1:9/a\tb",
         "http://127.0.0.1:9/a\x7fb", "http://127.0.0.1:9/v1\n", " http://127.0.0.1:9/v1", "http://local host/v1"],
    )
    def test_live_client_rejects_spaces_and_control_characters(self, url):
        # http.client refuses these in the request line on every attempt, so each would be
        # retried with backoff and end as a transport error; they are rejected before any request.
        with pytest.raises(DataError, match="no space or control character"):
            LlmClient(LlmConfig(url, "m", max_retries=2))

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/\u00e9", "http://127.0.0.1:9/v1?q=\u53a8"])
    def test_live_client_rejects_non_ascii_path_or_query(self, url):
        # http.client cannot encode them in the request line: each attempt died with a
        # UnicodeEncodeError, which is no DataError, so the CLI exited 1 with a traceback.
        with pytest.raises(DataError, match="non-ASCII one in the path or query"):
            LlmClient(LlmConfig(url, "m", max_retries=0))

    def test_live_client_leaves_a_non_ascii_host_to_idna(self):
        url = "http://b\u00fccher.example/v1#\u00e9"
        assert LlmClient(LlmConfig(url, "m")).config.endpoint_url == url


class TestMockClient:
    def test_single_success(self):
        client = MockLlmClient(["take spoon"])
        assert client.complete("sys", "usr") == "take spoon"
        assert len(client.requests) == 1

    def test_failures_then_success_consume_retries(self):
        client = MockLlmClient([Failure(), Failure(), "ok"], mock_config(max_retries=3))
        assert client.complete("sys", "usr") == "ok"
        assert len(client.requests) == 3

    def test_retry_budget_exhausted_raises_transport_error(self):
        client = MockLlmClient([Failure()] * 4, mock_config(max_retries=3))
        with pytest.raises(TransportError):
            client.complete("sys", "usr")
        # 1 initial attempt + 3 retries, every one recorded.
        assert len(client.requests) == 4

    def test_zero_retries_fail_fast(self):
        client = MockLlmClient([Failure("boom"), "never reached"], mock_config(max_retries=0))
        with pytest.raises(TransportError, match="boom"):
            client.complete("sys", "usr")
        assert len(client.requests) == 1

    def test_script_exhaustion_is_a_harness_error(self):
        client = MockLlmClient(["only one"])
        client.complete("sys", "usr")
        with pytest.raises(ScriptExhausted):
            client.complete("sys", "usr")

    def test_empty_script_rejected(self):
        with pytest.raises(DataError, match="at least one"):
            MockLlmClient([])

    def test_bad_entry_type_rejected(self):
        client = MockLlmClient([42])
        with pytest.raises(DataError, match="int"):
            client.complete("sys", "usr")

    def test_malformed_body_is_protocol_error_and_not_retried(self):
        client = MockLlmClient([{"unexpected": True}, "never reached"], mock_config(max_retries=3))
        with pytest.raises(ProtocolError):
            client.complete("sys", "usr")
        assert len(client.requests) == 1

    def test_non_text_content_is_protocol_error(self):
        body = {"choices": [{"message": {"content": 7}}]}
        client = MockLlmClient([body])
        with pytest.raises(ProtocolError, match="not text"):
            client.complete("sys", "usr")

    def test_verbatim_body_with_valid_shape_works(self):
        body = {"choices": [{"message": {"content": "from body"}}], "usage": {"total": 3}}
        client = MockLlmClient([body])
        assert client.complete("sys", "usr") == "from body"

    def test_concurrent_callers_never_share_an_entry(self):
        class SlowScript(list):
            # Reading an entry releases the GIL, so an unlocked cursor lets two
            # threads read the same position before either advances it.
            def __getitem__(self, index):
                time.sleep(0.0005)
                return super().__getitem__(index)

        threads, calls = 6, 20
        script = [f"reply {i}" for i in range(threads * calls)]
        client = MockLlmClient(script)
        client._script = SlowScript(script)
        replies: list[str] = []
        start = threading.Barrier(threads, timeout=30)

        def caller():
            start.wait()
            for _ in range(calls):
                replies.append(client.complete("sys", "usr"))

        workers = [threading.Thread(target=caller) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert sorted(replies) == sorted(script)


class TestRequestPayloads:
    def test_payload_shape(self):
        client = MockLlmClient(["ok"], mock_config(temperature=0.4, max_tokens=99))
        client.complete("be terse", "what next?")
        payload = client.requests[0]
        assert payload == {
            "model": "scripted-mock",
            "messages": [
                {"role": "system", "content": "be terse"},
                {"role": "user", "content": "what next?"},
            ],
            "temperature": 0.4,
            "max_tokens": 99,
        }

    def test_temperature_override_wins(self):
        client = MockLlmClient(["ok"], mock_config(temperature=0.9))
        client.complete("s", "u", temperature=0.0)
        assert client.requests[0]["temperature"] == 0.0

    def test_every_attempt_records_identical_body(self):
        client = MockLlmClient([Failure(), Failure(), "ok"], mock_config(max_retries=2))
        client.complete("s", "u")
        assert client.requests[0] == client.requests[1] == client.requests[2]

    def test_recorded_bodies_are_snapshots(self):
        client = MockLlmClient(["ok"])
        client.complete("s", "u")
        client.requests[0]["messages"][0]["content"] = "tampered"
        client2 = MockLlmClient(["ok"])
        client2.complete("s", "u")
        assert client2.requests[0]["messages"][0]["content"] == "s"

    def test_backoff_waits_grow_exponentially(self, monkeypatch):
        naps = []
        monkeypatch.setattr("ltakit.llm_client.time.sleep", lambda s: naps.append(s))
        client = MockLlmClient(
            [Failure(), Failure(), Failure(), "ok"],
            mock_config(max_retries=3, backoff_base=0.5),
        )
        client.complete("s", "u")
        assert naps == [0.5, 1.0, 2.0]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr("ltakit.llm_client.time.sleep", lambda s: naps.append(s))
        client = MockLlmClient([Failure(), "ok"], mock_config(max_retries=1, backoff_base=0.0))
        client.complete("s", "u")
        assert naps == []


class TestTokenHandling:
    def test_missing_token_env_is_immediate_error(self, monkeypatch):
        monkeypatch.delenv("LTAKIT_TEST_TOKEN", raising=False)
        config = LlmConfig(
            "http://localhost:9", "m", auth_token_env_var="LTAKIT_TEST_TOKEN", max_retries=2
        )
        client = LlmClient(config)
        with pytest.raises(LlmError, match="LTAKIT_TEST_TOKEN"):
            client.complete("s", "u")
        # Not a transport error, so no retries happened.
        assert len(client.requests) == 1

    def test_token_goes_to_header_not_body(self, monkeypatch, serve):
        secret = "super-secret-bearer-token-value"
        monkeypatch.setenv("LTAKIT_TEST_TOKEN", secret)
        seen = {}

        class Handler(JsonHandler):
            def do_POST(self):
                seen["path"] = self.path
                seen["headers"] = dict(self.headers)
                seen["body"] = self.rfile.read(int(self.headers["Content-Length"]))
                self.reply(200, chat_completion("fine"))

        url = serve(Handler) + "/v1"
        config = LlmConfig(url, "m", auth_token_env_var="LTAKIT_TEST_TOKEN")
        client = LlmClient(config)
        assert client.complete("sys", "usr") == "fine"
        assert seen["path"] == "/v1"
        assert seen["headers"]["Authorization"] == f"Bearer {secret}"
        assert seen["headers"]["Content-Type"] == "application/json"
        assert json.loads(seen["body"]) == client.requests[0]
        assert secret.encode() not in seen["body"]
        assert secret not in json.dumps(client.requests)

    def test_no_auth_header_when_env_var_unset_in_config(self, serve):
        seen = {}

        class Handler(JsonHandler):
            def do_POST(self):
                seen["headers"] = dict(self.headers)
                self.read_json()
                self.reply(200, chat_completion("fine"))

        client = LlmClient(LlmConfig(serve(Handler) + "/v1", "m"))
        client.complete("s", "u")
        assert "Authorization" not in seen["headers"]

    def test_token_is_not_sent_on_a_redirect(self, monkeypatch, serve):
        monkeypatch.setenv("LTAKIT_TEST_TOKEN", "bearer-value")
        seen = {}

        class Target(JsonHandler):
            def do_GET(self):  # a 302 turns the POST into a GET
                seen["target"] = dict(self.headers)
                self.reply(200, chat_completion("redirected"))

        target = serve(Target) + "/elsewhere"

        class Origin(JsonHandler):
            def do_POST(self):
                seen["origin"] = dict(self.headers)
                self.read_json()
                self.reply(302, b"", {"Location": target})

        config = LlmConfig(serve(Origin) + "/v1", "m", auth_token_env_var="LTAKIT_TEST_TOKEN")
        assert LlmClient(config).complete("s", "u") == "redirected"
        assert seen["origin"]["Authorization"] == "Bearer bearer-value"
        assert "Authorization" not in seen["target"]


class TestLiveTransport:
    def test_http_error_status_is_transport_error(self, serve):
        hits = []

        class Handler(JsonHandler):
            def do_POST(self):
                hits.append(self.read_json())
                self.reply(503, {"error": "overloaded"})

        config = LlmConfig(serve(Handler) + "/v1", "m", max_retries=1, backoff_base=0.0)
        client = LlmClient(config)
        with pytest.raises(TransportError, match="503"):
            client.complete("s", "u")
        assert len(client.requests) == 2
        assert hits == client.requests

    def test_non_json_reply_is_protocol_error(self, serve):
        class Handler(JsonHandler):
            def do_POST(self):
                self.read_json()
                self.reply(200, b"<html>not json</html>", {"Content-Type": "text/html"})

        client = LlmClient(LlmConfig(serve(Handler) + "/v1", "m", backoff_base=0.0))
        with pytest.raises(ProtocolError, match="not JSON"):
            client.complete("s", "u")
        assert len(client.requests) == 1

    def test_refused_connection_is_transport_error(self):
        # Port 9 on localhost is the discard port; nothing should be listening.
        config = LlmConfig(
            "http://127.0.0.1:9/v1/chat", "m", timeout=0.5, max_retries=0, backoff_base=0.0
        )
        with pytest.raises(TransportError):
            LlmClient(config).complete("s", "u")

    def test_read_timeout_is_retried_then_transport_error(self, serve):
        release = threading.Event()

        class Handler(JsonHandler):
            def do_POST(self):
                self.read_json()
                release.wait(10)  # far past the client's timeout

        config = LlmConfig(serve(Handler) + "/v1", "m", timeout=0.2, max_retries=2, backoff_base=0.0)
        client = LlmClient(config)
        try:
            with pytest.raises(TransportError, match="request failed"):
                client.complete("s", "u")
        finally:
            release.set()
        assert len(client.requests) == 3

    def test_connection_closed_mid_body_is_transport_error(self, serve):
        class Handler(JsonHandler):
            def do_POST(self):
                self.read_json()
                self.send_response(200)
                self.send_header("Content-Length", "1000")
                self.end_headers()
                self.wfile.write(b'{"choices": [')
                self.close_connection = True

        config = LlmConfig(serve(Handler) + "/v1", "m", max_retries=1, backoff_base=0.0)
        client = LlmClient(config)
        with pytest.raises(TransportError, match="request failed"):
            client.complete("s", "u")
        assert len(client.requests) == 2


class TestScriptFiles:
    def test_load_script_entry_forms(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            json.dumps(
                [
                    "plain text",
                    {"ok": "wrapped text"},
                    {"fail": "scripted outage"},
                    {"body": {"choices": []}},
                ]
            )
        )
        script = load_script(path)
        assert script[0] == "plain text"
        assert script[1] == "wrapped text"
        assert script[2] == Failure("scripted outage")
        assert script[3] == {"choices": []}

    def test_loaded_script_drives_mock(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"fail": "first down"}, {"ok": "second up"}]))
        client = MockLlmClient(load_script(path), mock_config(max_retries=1))
        assert client.complete("s", "u") == "second up"

    def test_non_array_script_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('{"ok": "not an array"}')
        with pytest.raises(DataError, match="JSON array"):
            load_script(path)

    def test_invalid_entry_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["fine", {"neither": 1}]))
        with pytest.raises(DataError, match="entry 1"):
            load_script(path)

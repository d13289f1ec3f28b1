"""Chat-completion client with retries, plus a deterministic scripted mock.

The wire format is the common chat-completions JSON schema: the request
carries {model, messages, temperature, max_tokens} and the reply text is
read from choices[0].message.content. Transport failures are retried with
exponential backoff up to max_retries; a well-formed HTTP reply whose body
is not a chat completion is a protocol error and is not retried.

The bearer token is read from the environment variable named in the config.
It travels only in the Authorization header, which is not resent on a
redirect; request bodies (the only thing this module records or logs) never
contain it.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from urllib.parse import urlsplit

from ._fileio import load_json
from .errors import DataError, LlmError, ProtocolError, ScriptExhausted, TransportError


@dataclass(frozen=True)
class LlmConfig:
    endpoint_url: str
    model_name: str
    temperature: float = 0.7
    max_tokens: int = 256
    timeout: float = 30.0
    max_retries: int = 3
    auth_token_env_var: str = ""
    backoff_base: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DataError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_retries < 0:
            raise DataError("max_retries must be >= 0")
        if self.max_tokens < 1:
            raise DataError("max_tokens must be >= 1")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise DataError(f"timeout must be finite and > 0, got {self.timeout}")


def _extract_message(body) -> str:
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat completion response: {exc!r}") from None
    if not isinstance(content, str):
        raise ProtocolError("completion content is not text")
    return content


class _ChatClient:
    """Shared request building, retry loop, and request recording."""

    def __init__(self, config: LlmConfig):
        self.config = config
        self._attempts: list[tuple[tuple, dict]] = []  # (the call's key, body) per attempt, in arrival order

    @property
    def requests(self) -> list[dict]:
        """One body per attempt, by the key its `complete` call was given, then in arrival order
        (so calls without a key keep arrival order); bodies never hold the token."""
        return [body for _, body in sorted(self._attempts, key=itemgetter(0))]

    def complete(self, system: str, user: str, temperature: float | None = None, key: tuple = ()) -> str:
        """Send one completion; retry transport failures with exponential backoff.

        `key` places this call's attempts in `requests`. Callers on several
        threads give each call its own key, such as (clip index, candidate),
        so that the log does not depend on thread timing.
        """
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": self.config.temperature if temperature is None else temperature,
            "max_tokens": self.config.max_tokens,
        }
        for attempt in range(self.config.max_retries + 1):
            if attempt > 0 and self.config.backoff_base > 0:
                time.sleep(self.config.backoff_base * 2 ** (attempt - 1))
            self._attempts.append((key, payload))
            try:
                body = self._send(payload)
            except TransportError:
                if attempt == self.config.max_retries:
                    raise
            else:
                return _extract_message(body)

    def _send(self, payload: dict) -> dict:
        raise NotImplementedError


class LlmClient(_ChatClient):
    """Live HTTP client for a chat-completions endpoint."""

    def __init__(self, config: LlmConfig):
        # urlopen would also open file:, ftp: and data: URLs; a chat endpoint is HTTP. http.client
        # refuses a space or control character in a URL, and a non-ASCII one in the request line
        # (the host goes through IDNA), so no attempt could succeed.
        url = config.endpoint_url
        try:
            parts = urlsplit(url)
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname or any(
                ch <= " " or ch == "\x7f" for ch in url) or not (parts.path + parts.query).isascii():
            raise DataError(f"endpoint URL must be http or https with a host and no space or control character,"
                            f" nor a non-ASCII one in the path or query (percent-encode them), got {url!r}")
        super().__init__(config)

    def _send(self, payload: dict) -> dict:
        import http.client  # here, not at the top: it pulls in ssl and email, which no other stage needs
        import urllib.error
        import urllib.request
        body = json.dumps(payload).encode()
        request = urllib.request.Request(self.config.endpoint_url, body, {"Content-Type": "application/json"})
        env_var = self.config.auth_token_env_var
        if env_var:
            token = os.environ.get(env_var)
            if not token:
                # Not a transport problem: retrying will not make the token appear.
                raise LlmError(f"auth token environment variable {env_var!r} is not set")
            request.add_unredirected_header("Authorization", f"Bearer {token}")
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise TransportError(f"endpoint returned HTTP {exc.code}") from None
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        try:
            return json.loads(raw)
        except ValueError:
            raise ProtocolError("response body is not JSON") from None


@dataclass(frozen=True)
class Failure:
    """Scripted transport failure for the mock."""

    message: str = "injected transport failure"


class MockLlmClient(_ChatClient):
    """Replays a script of responses and failures, in order, recording every request.

    Script entries: a str is returned as the completion text; a Failure
    raises a transport error (consuming the entry); a dict is returned
    verbatim as the response body, for exercising protocol errors. Running
    past the end of the script raises ScriptExhausted, which signals a test
    harness bug rather than a pipeline failure. Concurrent callers never
    receive the same entry, but which caller gets which entry follows
    arrival order.
    """

    def __init__(self, script, config: LlmConfig | None = None):
        script = list(script)
        if not script:
            raise DataError("mock script must contain at least one entry")
        super().__init__(config or LlmConfig("mock://local", "scripted-mock", backoff_base=0.0))
        self._script = script
        self._cursor = 0
        self._cursor_lock = threading.Lock()

    def _send(self, payload: dict) -> dict:
        with self._cursor_lock:
            if self._cursor >= len(self._script):
                raise ScriptExhausted(f"mock script exhausted after {len(self._script)} entries")
            entry = self._script[self._cursor]
            self._cursor += 1
        if isinstance(entry, Failure):
            raise TransportError(entry.message)
        if isinstance(entry, str):
            return {"choices": [{"message": {"content": entry}}]}
        if isinstance(entry, dict):
            return entry
        raise DataError(f"unsupported mock script entry of type {type(entry).__name__}")


def load_script(path) -> list:
    """Read a mock script file: a JSON array of entries.

    Each entry is either a plain string (a completion), {"ok": "..."} (same),
    {"fail": "message"} (a scripted transport failure), or {"body": {...}}
    (a verbatim response body).
    """
    raw = load_json(path)
    if not isinstance(raw, list):
        raise DataError(f"{path}: mock script must be a JSON array")
    script = []
    for i, entry in enumerate(raw):
        if isinstance(entry, str):
            script.append(entry)
        elif isinstance(entry, dict) and "ok" in entry:
            script.append(str(entry["ok"]))
        elif isinstance(entry, dict) and "fail" in entry:
            script.append(Failure(str(entry["fail"])))
        elif isinstance(entry, dict) and "body" in entry:
            script.append(entry["body"])
        else:
            raise DataError(f"{path}: entry {i} is not a valid script entry")
    return script

"""Chat-completion client with retries, plus a deterministic scripted mock.

The wire format is the common chat-completions JSON schema: the request
carries {model, messages, temperature, max_tokens} and the reply text is
read from choices[0].message.content. Transport failures are retried with
exponential backoff up to max_retries; a well-formed HTTP reply whose body
is not a chat completion is a protocol error and is not retried.

The bearer token is read from the environment variable named in the config.
It travels only in the Authorization header: request bodies (the only thing
this module records or logs) never contain it.
"""

from __future__ import annotations

import copy
import math
import os
import threading
import time
from dataclasses import dataclass

import requests

from ._fileio import load_json
from .errors import DataError, LlmError, ProtocolError, ScriptExhausted, TransportError


def check_temperature(value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise DataError(f"temperature must be finite and >= 0, got {value}")
    return value


@dataclass(frozen=True)
class LlmConfig:
    endpoint_url: str
    model_name: str
    temperature: float = 0.7
    max_tokens: int = 512
    timeout: float = 30.0
    max_retries: int = 3
    auth_token_env_var: str = ""
    backoff_base: float = 0.5

    def __post_init__(self):
        check_temperature(self.temperature)
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
        self.requests: list[dict] = []  # one body per attempt; bodies never hold the token

    def complete(self, system: str, user: str, temperature: float | None = None) -> str:
        """Send one completion; retry transport failures with exponential backoff."""
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": self.config.temperature if temperature is None else temperature,
            "max_tokens": self.config.max_tokens,
        }
        delay = self.config.backoff_base
        attempt = 0
        while True:
            attempt += 1
            self.requests.append(copy.deepcopy(payload))
            try:
                body = self._send(payload)
            except TransportError:
                if attempt > self.config.max_retries:
                    raise
                if delay > 0:
                    time.sleep(delay)
                delay = delay * 2 if delay > 0 else 0.0
                continue
            return _extract_message(body)

    def _send(self, payload: dict) -> dict:
        raise NotImplementedError


class LlmClient(_ChatClient):
    """Live HTTP client for a chat-completions endpoint."""

    def _send(self, payload: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        env_var = self.config.auth_token_env_var
        if env_var:
            token = os.environ.get(env_var)
            if not token:
                # Not a transport problem: retrying will not make the token appear.
                raise LlmError(f"auth token environment variable {env_var!r} is not set")
            headers["Authorization"] = f"Bearer {token}"
        try:
            resp = requests.post(
                self.config.endpoint_url, json=payload, headers=headers, timeout=self.config.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if resp.status_code >= 400:
            raise TransportError(f"endpoint returned HTTP {resp.status_code}")
        try:
            return resp.json()
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
        super().__init__(
            config
            or LlmConfig(endpoint_url="mock://local", model_name="scripted-mock", backoff_base=0.0)
        )
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

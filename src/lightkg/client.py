"""Minimal chat-completion client abstraction.

Extraction only needs "messages in, text out", so any endpoint speaking the
de-facto standard ``POST {base_url}/chat/completions`` protocol works, local
or remote. A deterministic mock keyed by prompt fingerprints backs the test
suite and the ``fixture`` extractor.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

ENV_API_BASE = "LIGHTKG_API_BASE"
ENV_API_KEY = "LIGHTKG_API_KEY"
ENV_MODEL = "LIGHTKG_MODEL"

_ROLES = ("system", "user", "assistant")
_RETRY_STATUSES = (429, 500, 502, 503, 504)
_BACKOFF_BASE_S = 0.5  # the wait after the first failed attempt; each later one doubles


class ModelClientError(Exception):
    """Base class for completion-client failures."""


class EndpointUnreachableError(ModelClientError):
    pass


class CompletionTimeoutError(ModelClientError):
    pass


class CompletionHTTPError(ModelClientError):
    def __init__(self, status_code: int, body_excerpt: str) -> None:
        super().__init__(f"HTTP {status_code}: {body_excerpt}")
        self.status_code = status_code
        self.body_excerpt = body_excerpt


class MalformedResponseError(ModelClientError):
    pass


class FixtureMissError(ModelClientError):
    def __init__(self, fingerprint: str) -> None:
        super().__init__(
            f"no fixture registered for prompt fingerprint {fingerprint!r}"
        )
        self.fingerprint = fingerprint


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class CompletionParams:
    model_name: str = "default"
    temperature: float = 0.0
    max_tokens: int = 512
    timeout: float = 30.0

    def __post_init__(self) -> None:
        # NaN and infinity fail: requests cannot send a NaN, nor a socket take inf.
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")


def prompt_fingerprint(messages: Sequence[ChatMessage]) -> str:
    """Hash of the concatenated message contents; keys mock fixtures."""
    joined = "\x00".join(m.content for m in messages)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _check_request(messages: Sequence[ChatMessage]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[-1].role != "user":
        raise ValueError("last message must have role 'user'")


class ChatClient(ABC):
    @abstractmethod
    def complete(self, messages: Sequence[ChatMessage], params: CompletionParams) -> str:
        """Return the model's text for a chat exchange."""


class MockChatClient(ChatClient):
    """Deterministic client returning canned responses by prompt fingerprint.

    Unknown prompts raise :class:`FixtureMissError` naming the fingerprint,
    so a missing fixture can be added verbatim.
    """

    def __init__(self, fixtures: Mapping[str, str] | None = None) -> None:
        self.fixtures: dict[str, str] = dict(fixtures or {})

    def complete(self, messages: Sequence[ChatMessage], params: CompletionParams) -> str:
        _check_request(messages)
        fingerprint = prompt_fingerprint(messages)
        if fingerprint not in self.fixtures:
            raise FixtureMissError(fingerprint)
        return self.fixtures[fingerprint]


class HttpChatClient(ChatClient):
    """Client for any endpoint speaking the standard chat-completions JSON
    protocol. Retries transient failures (connection errors, timeouts,
    429/5xx) with exponential backoff; at most ``1 + retry_count`` attempts.

    ``post`` defaults to ``requests.post``. ``requests`` is imported when a
    client is built, not when lightkg is, and not on any request. Whatever
    ``post`` is, ``requests.Timeout`` from it maps to
    :class:`CompletionTimeoutError` and any other ``requests.RequestException``
    to :class:`EndpointUnreachableError`.

    The API key is read from the environment only, never from config files.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        retry_count: int = 2,
        sleep: Callable[[float], None] = time.sleep,
        post: Callable | None = None,
    ) -> None:
        if not base_url:
            raise ValueError("base_url must be non-empty")
        import requests

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.retry_count = max(0, retry_count)
        self._sleep = sleep
        self._requests = requests
        self._post = requests.post if post is None else post

    @classmethod
    def from_env(cls, retry_count: int = 2) -> HttpChatClient:
        base_url = os.environ.get(ENV_API_BASE)
        if not base_url:
            raise EndpointUnreachableError(
                f"{ENV_API_BASE} is not set; no endpoint to call"
            )
        return cls(base_url, api_key=os.environ.get(ENV_API_KEY), retry_count=retry_count)

    def complete(self, messages: Sequence[ChatMessage], params: CompletionParams) -> str:
        _check_request(messages)
        url = f"{self.base_url}/chat/completions"
        body = {
            "model": params.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        attempts = 1 + self.retry_count
        last_error: ModelClientError = EndpointUnreachableError(url)
        for attempt in range(attempts):
            try:
                response = self._post(
                    url, json=body, headers=headers, timeout=params.timeout
                )
            except self._requests.Timeout as exc:
                last_error = CompletionTimeoutError(str(exc))
            except self._requests.RequestException as exc:
                last_error = EndpointUnreachableError(str(exc))
            else:
                if response.status_code == 200:
                    return self._extract_content(response)
                excerpt = (response.text or "")[:200]
                error = CompletionHTTPError(response.status_code, excerpt)
                if response.status_code not in _RETRY_STATUSES:
                    raise error
                last_error = error
            if attempt + 1 < attempts:
                self._sleep(_BACKOFF_BASE_S * (2**attempt))
        raise last_error

    @staticmethod
    def _extract_content(response) -> str:
        try:
            payload = response.json()
        except ValueError as exc:
            raise MalformedResponseError(f"response body is not json: {exc}") from exc
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(
                f"response missing choices[0].message.content: {exc}"
            ) from exc
        if not isinstance(content, str):
            raise MalformedResponseError(
                f"content field is {type(content).__name__}, expected string"
            )
        return content

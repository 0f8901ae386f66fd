"""Completion-endpoint client with record/replay cassettes.

Two modes:

- Live: POST to an OpenAI-compatible ``/completions`` endpoint, with
  exponential-backoff retries; a call that fails raises its last attempt's
  error.  Given a cassette, it records through:
  requests already on the cassette are served from it, and fresh
  completions are appended.  The caller's worker count is the only bound
  on requests in flight.
- Replay: serve completions from an existing cassette file; never touches
  the network (no endpoint is even configured).

A mode reads its cassette once, when it is made, and holds it; a run's
workers share the mode, its cassette and the cassette's append lock.

A cassette is newline-delimited JSON, one ``{fingerprint, model, params,
completion}`` record per line, optionally preceded by a single
``{"metadata": {...}}`` header line.  The fingerprint is a SHA-256 over a
canonical encoding of (model, prompt, params, stop sequences), so any
byte-level change to a request maps to a different cassette slot.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol

from .prompts import DEFAULT_STOP_SEQUENCES, DecodingParams

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 2.0
DEFAULT_TIMEOUT = 120.0
DEFAULT_CREDENTIAL_ENV = "OPENAI_API_KEY"

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


def is_utf8_text(value: object) -> bool:
    """Whether `value` is a str that UTF-8 can encode: one with no lone
    surrogate, which `json.loads` reads from an escape like ``"\\ud83d"``."""
    return isinstance(value, str) and not re.search("[\ud800-\udfff]", value)


class ClientError(Exception):
    """Base class for completion-client failures."""


class CassetteMissError(ClientError):
    """The replay cassette has no entry for this request fingerprint."""

    def __init__(self, fingerprint: str):
        super().__init__(f"no cassette entry for fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class EndpointError(ClientError):
    def __init__(self, status: int | None, body: str):
        excerpt = body[:200]
        super().__init__(f"endpoint failure (status {status}): {excerpt}")
        self.status = status
        self.body = excerpt


class RequestTimeoutError(ClientError):
    def __init__(self, timeout: float):
        super().__init__(f"request timed out after {timeout}s on the last attempt")
        self.timeout = timeout


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    params: DecodingParams = field(default_factory=DecodingParams)
    stop_sequences: tuple[str, ...] = DEFAULT_STOP_SEQUENCES

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be nonempty")


def fingerprint(req: CompletionRequest) -> str:
    """Stable hex digest of the full request identity.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256; stable
    across processes and platforms, and sensitive to every byte of the
    prompt and every parameter.
    """
    canonical = json.dumps(
        {
            "model": req.model,
            "prompt": req.prompt,
            "params": req.params.as_dict(),
            "stop": list(req.stop_sequences),
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Cassettes

@dataclass
class Cassette:
    entries: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)

    @classmethod
    def load(cls, path: str | Path) -> "Cassette":
        entries: dict[str, str] = {}
        metadata: dict[str, Any] = {}
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if "fingerprint" in record:
                        completion = record["completion"]
                        if not is_utf8_text(completion):
                            raise ValueError("a completion must be UTF-8 text")
                        # First write wins: entries are immutable once recorded.
                        entries.setdefault(record["fingerprint"], completion)
                    elif "metadata" in record and lineno == 1:
                        metadata = record["metadata"]
                    else:
                        raise ValueError("neither a recorded completion nor the header")
                except (ValueError, TypeError, KeyError) as err:  # JSONDecodeError is a ValueError
                    raise ValueError(f"{path}:{lineno}: unrecognized cassette line") from err
        return cls(entries, metadata)


def write_cassette(path: str | Path, cassette: Cassette) -> None:
    """Write a full cassette file (metadata header first, if any)."""
    lines = []
    if cassette.metadata:
        lines.append(json.dumps({"metadata": cassette.metadata}, sort_keys=True, ensure_ascii=False))
    for digest, completion in cassette.entries.items():
        lines.append(
            json.dumps({"fingerprint": digest, "completion": completion}, sort_keys=True, ensure_ascii=False)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def append_record(path: str | Path, req: CompletionRequest, completion: str) -> None:
    line = json.dumps(
        {
            "fingerprint": fingerprint(req),
            "model": req.model,
            "params": req.params.as_dict(),
            "completion": completion,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


# --------------------------------------------------------------------------
# Modes

def _open_cassette(mode: Live | Replay) -> None:
    """Read the mode's cassette once, as the mode is made: the file, None
    without a path, or an empty cassette for a recording Live whose file
    does not exist yet; Replay raises FileNotFoundError for a missing one."""
    try:
        cassette = None if mode.cassette_path is None else Cassette.load(mode.cassette_path)
    except FileNotFoundError:
        if isinstance(mode, Replay):
            raise
        cassette = Cassette()
    object.__setattr__(mode, "cassette", cassette)


@dataclass(frozen=True)
class Live:
    """Call the endpoint.  With a cassette, record through it: serve
    recorded requests from it and append fresh completions."""

    endpoint: str
    cassette_path: str | None = None
    credential_env: str = DEFAULT_CREDENTIAL_ENV
    timeout: float = DEFAULT_TIMEOUT
    cassette: Cassette | None = field(init=False, compare=False, repr=False)

    __post_init__ = _open_cassette


# The same class under its old name.  The benchmark's record-resume workload
# (bench/child.py) still builds its mode as ``declsolve.RecordThrough``, so
# the name goes when that call moves to ``Live(endpoint, cassette_path)``.
RecordThrough = Live


@dataclass(frozen=True)
class Replay:
    cassette_path: str
    cassette: Cassette = field(init=False, compare=False, repr=False)

    __post_init__ = _open_cassette


ClientMode = Live | Replay


class Transport(Protocol):
    def __call__(self, url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, str]:
        ...


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, str]:
    # Imported here: it is most of the package's import time, and only a
    # live call needs it.  Its errors are OSErrors; a timeout is re-raised as
    # the builtin TimeoutError, so callers catch builtins only.
    import requests

    try:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.Timeout as err:
        raise TimeoutError(str(err)) from err
    return response.status_code, response.text


def forget_cassette(path: str | Path) -> None:
    """Does nothing: a mode reads its cassette when it is made.  It stays
    only because the benchmark (bench/child.py) still calls it, and goes
    with the next change to bench/, as RecordThrough will."""


def _live_call(
    req: CompletionRequest,
    mode: Live,
    transport: Transport,
    sleep: Callable[[float], None],
) -> str:
    payload = {
        "model": req.model,
        "prompt": req.prompt,
        "temperature": req.params.temperature,
        "max_tokens": req.params.max_tokens,
        "n": req.params.n_samples,
    }
    if req.stop_sequences:
        payload["stop"] = list(req.stop_sequences)
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(mode.credential_env)
    if key:
        headers["Authorization"] = f"Bearer {key}"

    error: ClientError | None = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            sleep(RETRY_BASE_DELAY * 2 ** (attempt - 1))
        try:
            status, body = transport(mode.endpoint, payload, headers, mode.timeout)
        except TimeoutError:
            error = RequestTimeoutError(mode.timeout)
            continue
        except OSError as err:  # ConnectionError, requests.RequestException
            error = EndpointError(None, str(err))
            continue
        if status == 200:
            try:
                text = json.loads(body)["choices"][0]["text"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError):
                text = None
            if not is_utf8_text(text):
                raise EndpointError(status, f"malformed completion body: {body[:120]}")
            return text
        error = EndpointError(status, body)
        if status not in _RETRYABLE_STATUSES:
            raise error
    raise error


def complete(
    req: CompletionRequest,
    mode: ClientMode,
    *,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> str:
    """Resolve a completion request under the given mode.

    A cassette, Replay's or a recording Live's, is looked up first.  Replay
    performs a pure lookup — no transport is constructed and no network name
    is ever resolved.  Live records fresh completions on its cassette, if it
    has one, under the cassette's lock; recording is idempotent.
    """
    if not isinstance(mode, (Live, Replay)):
        raise TypeError(f"unknown client mode: {mode!r}")

    cassette = mode.cassette
    if cassette is not None:
        digest = fingerprint(req)
        recorded = cassette.entries.get(digest)
        if recorded is not None:
            return recorded
        if isinstance(mode, Replay):
            raise CassetteMissError(digest)

    completion = _live_call(req, mode, transport or _requests_transport, sleep)
    if cassette is not None:
        with cassette.lock:
            # Re-check under the lock: another worker may have recorded it.
            if cassette.entries.get(digest) is None:
                append_record(mode.cassette_path, req, completion)
                cassette.entries[digest] = completion
    return completion

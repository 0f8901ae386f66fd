import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

import declsolve
from declsolve import client
from declsolve.client import (
    RETRY_ATTEMPTS,
    Cassette,
    CassetteMissError,
    CompletionRequest,
    EndpointError,
    Live,
    Replay,
    RequestTimeoutError,
    append_record,
    complete,
    fingerprint,
    write_cassette,
)
from declsolve.prompts import DecodingParams


def req(prompt="Question: Q\n\nSolution:", **kwargs):
    params = DecodingParams(**kwargs) if kwargs else DecodingParams()
    return CompletionRequest("test-model", prompt, params)


def ok_body(text):
    return json.dumps({"choices": [{"text": text}]})


class FakeTransport:
    """Scripted transport: pops one (status, body) per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload, headers, timeout))
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def no_sleep(_):
    return None


# --- fingerprints ------------------------------------------------------------

def test_fingerprint_is_stable():
    assert fingerprint(req()) == fingerprint(req())


def test_fingerprint_sensitive_to_prompt_bytes():
    assert fingerprint(req("p")) != fingerprint(req("p "))


def test_fingerprint_sensitive_to_params_and_model_and_stop():
    base = req()
    assert fingerprint(base) != fingerprint(req(max_tokens=601))
    assert fingerprint(base) != fingerprint(req(temperature=0.5))
    assert fingerprint(base) != fingerprint(
        CompletionRequest("other-model", base.prompt, base.params)
    )
    assert fingerprint(base) != fingerprint(
        CompletionRequest(base.model, base.prompt, base.params, ())
    )


def test_request_requires_nonempty_prompt():
    with pytest.raises(ValueError):
        CompletionRequest("m", "")


# --- cassette files ------------------------------------------------------------

def test_cassette_write_and_load(tmp_path):
    path = tmp_path / "c.jsonl"
    cassette = Cassette(
        entries={"abc": "recorded text"},
        metadata={"model": "test-model", "label": "fixture"},
    )
    write_cassette(path, cassette)
    loaded = Cassette.load(path)
    assert loaded.entries == {"abc": "recorded text"}
    assert loaded.metadata["label"] == "fixture"


def test_cassette_append_and_duplicate_policy(tmp_path):
    path = tmp_path / "c.jsonl"
    r = req()
    append_record(path, r, "first")
    append_record(path, r, "second")
    loaded = Cassette.load(path)
    # first write wins; entries are immutable once recorded
    assert loaded.entries[fingerprint(r)] == "first"


def test_cassette_rejects_garbage_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"neither": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        Cassette.load(path)


@pytest.mark.parametrize("line", ["not json", '"fingerprint"', '{"fingerprint": "x"}', "[1]"])
def test_cassette_names_the_line_of_any_malformed_shape(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_text(f'{{"metadata": {{}}}}\n{line}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"c\.jsonl:2: unrecognized cassette line"):
        Cassette.load(path)


# --- replay ---------------------------------------------------------------------

def test_replay_returns_recorded_text(tmp_path):
    path = tmp_path / "c.jsonl"
    r = req()
    append_record(path, r, " the answer is [[x = 2]]")
    assert complete(r, Replay(str(path))) == " the answer is [[x = 2]]"


def test_replay_miss_raises(tmp_path):
    path = tmp_path / "c.jsonl"
    append_record(path, req("other prompt"), "text")
    with pytest.raises(CassetteMissError) as info:
        complete(req(), Replay(str(path)))
    assert info.value.fingerprint == fingerprint(req())


def test_replay_never_touches_the_network(tmp_path):
    path = tmp_path / "c.jsonl"
    r = req()
    append_record(path, r, "recorded")

    def exploding_transport(*args, **kwargs):
        raise AssertionError("replay mode must not call the transport")

    got = complete(r, Replay(str(path)), transport=exploding_transport)
    assert got == "recorded"


def test_a_new_mode_sees_records_an_earlier_mode_appended(tmp_path):
    """The benchmark's per-pass pattern: each pass makes its own mode on a
    file that earlier modes wrote to, and nothing needs forgetting."""
    path = tmp_path / "c.jsonl"
    first = Live("https://example.invalid", str(path))
    assert complete(req(), first, transport=FakeTransport([(200, ok_body(" v1"))]), sleep=no_sleep) == " v1"
    replay = Replay(str(path))
    assert complete(req(), replay) == " v1"
    # A mode reads its file once, when it is made: a later write is the next mode's.
    other = req("another prompt")
    append_record(path, other, " v2")
    with pytest.raises(CassetteMissError):
        complete(other, replay)
    assert complete(other, Replay(str(path))) == " v2"
    second = Live("https://example.invalid", str(path))
    assert complete(other, second, transport=FakeTransport([]), sleep=no_sleep) == " v2"


def count_calls(monkeypatch, owner, name):
    """Count calls to `owner.name` from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_mode_reads_its_cassette_once(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    r = req()
    append_record(path, r, "v1")
    loads = count_calls(monkeypatch, Cassette, "load")
    resolves = count_calls(monkeypatch, Path, "resolve")
    mode = Replay(str(path))
    assert len(loads) == 1
    for _ in range(50):
        assert complete(r, mode) == "v1"
    assert len(loads) == 1
    assert resolves == []


def test_relative_cassette_path_follows_the_working_directory(tmp_path, monkeypatch):
    r = req()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        append_record(tmp_path / name / "c.jsonl", r, f"from {name}")
    monkeypatch.chdir(tmp_path / "a")
    assert complete(r, Replay("c.jsonl")) == "from a"
    monkeypatch.chdir(tmp_path / "b")
    assert complete(r, Replay("c.jsonl")) == "from b"


# --- live ------------------------------------------------------------------------

def test_live_sends_decoding_params_exactly():
    transport = FakeTransport([(200, ok_body(" done"))])
    mode = Live("https://example.invalid/v1/completions")
    got = complete(req(), mode, transport=transport, sleep=no_sleep)
    assert got == " done"
    (_, payload, headers, timeout) = transport.calls[0]
    assert payload["temperature"] == 0.0
    assert payload["max_tokens"] == 600
    assert payload["n"] == 1
    assert payload["stop"] == ["Question:"]
    assert payload["model"] == "test-model"
    assert timeout == 120.0


def test_live_credential_comes_from_environment(monkeypatch):
    monkeypatch.setenv("FAKE_KEY_VAR", "sk-secret")
    transport = FakeTransport([(200, ok_body("x"))])
    mode = Live("https://example.invalid", credential_env="FAKE_KEY_VAR")
    complete(req(), mode, transport=transport, sleep=no_sleep)
    headers = transport.calls[0][2]
    assert headers["Authorization"] == "Bearer sk-secret"


def test_live_retries_transient_then_succeeds():
    transport = FakeTransport(
        [(429, "slow down"), (500, "oops"), (200, ok_body("third time"))]
    )
    sleeps = []
    mode = Live("https://example.invalid")
    got = complete(req(), mode, transport=transport, sleep=sleeps.append)
    assert got == "third time"
    assert len(transport.calls) == 3
    assert sleeps == [2.0, 4.0]  # exponential backoff, base 2s


def test_live_gives_up_after_three_attempts():
    transport = FakeTransport([(503, "a"), (503, "b"), (503, "c")])
    with pytest.raises(EndpointError) as info:
        complete(req(), Live("https://example.invalid"), transport=transport, sleep=no_sleep)
    assert info.value.status == 503
    assert len(transport.calls) == 3


def test_live_hard_errors_do_not_retry():
    transport = FakeTransport([(400, "bad request")])
    with pytest.raises(EndpointError) as info:
        complete(req(), Live("https://example.invalid"), transport=transport, sleep=no_sleep)
    assert info.value.status == 400
    assert len(transport.calls) == 1


def test_live_timeout_surfaces_after_retries():
    transport = FakeTransport([TimeoutError(), TimeoutError(), TimeoutError()])
    with pytest.raises(RequestTimeoutError):
        complete(req(), Live("https://example.invalid"), transport=transport, sleep=no_sleep)


@pytest.mark.parametrize(
    "error, surfaced",
    [
        (requests.Timeout("read timed out"), RequestTimeoutError),
        (requests.ConnectionError("connection refused"), EndpointError),
    ],
)
def test_live_default_transport_retries_requests_errors(monkeypatch, error, surfaced):
    calls = []

    def post(url, **kwargs):
        calls.append(url)
        raise error

    monkeypatch.setattr(requests, "post", post)
    with pytest.raises(surfaced):
        complete(req(), Live("https://example.invalid"), sleep=no_sleep)
    assert len(calls) == RETRY_ATTEMPTS


def test_import_does_not_load_requests(tmp_path):
    """Replay, `check` and `solve --cassette` never need the HTTP library."""
    src = Path(declsolve.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, declsolve, declsolve.cli; print('requests' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_live_malformed_body_is_an_endpoint_error():
    transport = FakeTransport([(200, "not json")])
    with pytest.raises(EndpointError):
        complete(req(), Live("https://example.invalid"), transport=transport, sleep=no_sleep)


# --- live with a cassette (record-through) ---------------------------------------

def test_record_through_records_then_replays(tmp_path):
    path = tmp_path / "c.jsonl"
    mode = Live("https://example.invalid", str(path))
    transport = FakeTransport([(200, ok_body(" fresh"))])
    assert complete(req(), mode, transport=transport, sleep=no_sleep) == " fresh"
    # second call is served from the cassette: no transport interaction
    assert complete(req(), mode, transport=FakeTransport([]), sleep=no_sleep) == " fresh"
    # and a pure replay of the same file agrees
    assert complete(req(), Replay(str(path))) == " fresh"


def test_record_through_appends_full_records(tmp_path):
    path = tmp_path / "c.jsonl"
    mode = Live("https://example.invalid", str(path))
    complete(req(), mode, transport=FakeTransport([(200, ok_body("t"))]), sleep=no_sleep)
    record = json.loads(path.read_text().strip())
    assert record["fingerprint"] == fingerprint(req())
    assert record["model"] == "test-model"
    assert record["params"]["max_tokens"] == 600
    assert record["completion"] == "t"


def test_record_through_is_thread_safe(tmp_path):
    """One mode shared by a run's workers: each request, sent by two threads
    at once, is appended exactly once."""
    path = tmp_path / "many.jsonl"
    mode = Live("https://example.invalid", str(path))
    requests_ = [req(f"prompt {i}") for i in range(16)]

    senders = requests_ * 2
    start = threading.Barrier(len(senders), timeout=30)

    def transport(url, payload, headers, timeout):
        time.sleep(0.005)  # no sender records before every sender has missed
        return 200, ok_body(f"reply to {payload['prompt']}")

    def send(r):
        start.wait()  # every sender looks the cassette up at once, and misses
        complete(r, mode, transport=transport, sleep=no_sleep)

    threads = [threading.Thread(target=send, args=(r,)) for r in senders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 16
    loaded = Cassette.load(path)
    assert len(loaded.entries) == 16
    for r in requests_:
        assert loaded.entries[fingerprint(r)] == f"reply to {r.prompt}"

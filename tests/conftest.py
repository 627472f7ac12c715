from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import settings

from steppref.corpus import PairRecord, Problem, Rationale, dumps, record_to_dict

from oracles import evaluate, question_ops


# CI selects this profile (--hypothesis-profile=ci): the same examples on
# every run, and a failure prints the blob that replays it.
settings.register_profile("ci", derandomize=True, print_blob=True)


def make_rationale(rng: np.random.Generator, label: str = "ungraded",
                   with_conclusion: bool = True) -> Rationale:
    words = ["alpha", "beta", "gamma", "delta", "eps", "7", "13", "x"]
    n_steps = int(rng.integers(1, 5))
    steps = tuple(
        " ".join(words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(2, 6)))
        for _ in range(n_steps)
    )
    conclusion = f"The answer is {int(rng.integers(0, 100))}." if with_conclusion else None
    extracted = None
    if label == "correct":
        extracted = str(int(rng.integers(0, 100)))
    elif label == "incorrect" and rng.random() < 0.7:
        extracted = str(int(rng.integers(0, 100)))
    return Rationale(steps=steps, conclusion=conclusion, producer="SFT",
                     label=label, extracted_answer=extracted)


def make_pair_record(rng: np.random.Generator, granular: bool = False) -> PairRecord:
    chosen = make_rationale(rng, "correct")
    rejected = make_rationale(rng, "incorrect", with_conclusion=False)
    if granular:
        return PairRecord(
            problem_id=f"p{int(rng.integers(0, 1000)):04d}",
            input="question text\nstep one",
            chosen=chosen,
            rejected=rejected,
            granularity="granular-full",
            pit_index=int(rng.integers(1, 5)),
        )
    return PairRecord(
        problem_id=f"p{int(rng.integers(0, 1000)):04d}",
        input="question text",
        chosen=chosen,
        rejected=rejected,
        granularity="outcome",
        pit_index=None,
    )


def _chain(problem: Problem, error_at: int, delta: int) -> tuple[tuple[str, ...], int]:
    """The question's step lines, with `delta` added to the result of step
    `error_at` (1-based) and carried on; and the final value."""
    value, ops = question_ops(problem.question)
    steps = []
    for i, (symbol, operand) in enumerate(ops, start=1):
        declared = evaluate(symbol, value, operand) + (delta if i == error_at else 0)
        steps.append(f"{value}{symbol}{operand}={declared}.")
        value = declared
    return tuple(steps), value


def trace_with_error(problem: Problem, error_at: int, delta: int = 2) -> Rationale:
    """Gold chain corrupted at `error_at` (1-based), propagated faithfully."""
    steps, value = _chain(problem, error_at, delta)
    return Rationale(steps=steps, conclusion=None, producer="SFT", label="incorrect",
                     extracted_answer=str(value))


def correct_rationale(problem: Problem) -> Rationale:
    """The gold chain, as the synthetic solver writes it at epsilon 0."""
    steps, value = _chain(problem, 0, 0)
    return Rationale(steps=steps, conclusion=f"The answer is {value}.", producer="SYNTH",
                     label="correct", extracted_answer=str(value))


def write_lines(records, header, path) -> None:
    """The lines write_dataset writes, without its refusals: a file that
    breaks its kind's rule, for a reader to refuse."""
    lines = [{"kind": header.kind, "source_hash": header.source_hash},
             *map(record_to_dict, records)]
    path.write_text("".join(dumps(d) + "\n" for d in lines))


class StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        server = self.server
        with server.lock:
            server.active += 1
            server.peak = max(server.peak, server.active)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
            with server.lock:
                server.calls.append(payload)
                server.headers.append(self.headers)
            if server.delay_s:
                time.sleep(server.delay_s)
            status, body, *headers = server.respond(payload)
        finally:
            # leave the count before the response goes out: a client that has
            # read it may send its next request at once
            with server.lock:
                server.active -= 1
        data = json.dumps(body).encode()
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a GET is recorded too, with an empty payload

    def log_message(self, *args):  # silence request logging
        pass


class StubServer:
    """Scriptable completions endpoint for client tests. `respond(payload)`
    returns (status, body), or (status, body, extra headers)."""

    def __init__(self, respond, delay_s: float = 0.0):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
        self.httpd.respond = respond
        self.httpd.delay_s = delay_s
        self.httpd.lock = threading.Lock()
        self.httpd.active = 0
        self.httpd.peak = 0
        self.httpd.calls = []
        self.httpd.headers = []
        # a short poll interval lets close() return at once, not after up to 0.5 s
        self.thread = threading.Thread(target=self.httpd.serve_forever, args=(0.01,),
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1/completions"

    @property
    def peak_concurrency(self) -> int:
        return self.httpd.peak

    @property
    def calls(self) -> list:
        return self.httpd.calls

    @property
    def headers(self) -> list:
        """Each request's headers, in arrival order; lookups ignore case."""
        return self.httpd.headers

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def factory(respond, delay_s: float = 0.0) -> StubServer:
        server = StubServer(respond, delay_s)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr("steppref.genclient.BACKOFF_INITIAL_S", 0.01)
    monkeypatch.setattr("steppref.genclient.REQUEST_TIMEOUT_S", 5.0)

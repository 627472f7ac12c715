"""Loopback completions server for the http-explore workload.

Run as a script, it serves OpenAI-style completions on 127.0.0.1:

  POST /v1/completions  the synthetic provider's `genclient.sample` output for
                        the posted prompt, n, temperature and seed, sent after
                        a fixed delay
  GET  /stats           requests served, peak in-flight, summed service time,
                        non-200 responses and a (request key, service time) log
  POST /reset           clears the counters

It prints its port on the first line of stdout. `LoopbackServer` starts it as
a child process, so the server's own sampling never runs under the client's
interpreter lock or tracer, and stops it on `close`.

    python3 bench/loopback.py --src src --epsilon 0.05 --synth-seed 0 --delay-ms 10
"""

from __future__ import annotations

import argparse
import json
import select
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from tracing import request_key

START_TIMEOUT_S = 60.0


class _Handler(BaseHTTPRequestHandler):
    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 - http.server API
        server = self.server
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with server.lock:
            body = {"requests": server.requests, "peak_in_flight": server.peak,
                    "busy_s": server.busy_s, "non_200": server.non_200,
                    "log": list(server.log)}
        self._send(200, body)

    def do_POST(self):  # noqa: N802 - http.server API
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            server.reset()
            self._send(200, {})
            return
        start = time.perf_counter()
        with server.lock:
            server.active += 1
            server.peak = max(server.peak, server.active)
        status, key = 500, None
        try:
            payload = json.loads(raw)
            key = request_key(payload["prompt"], payload["n"], payload["temperature"],
                              payload.get("seed"))
            cfg = server.genclient.SamplingConfig(
                n=int(payload["n"]), temperature=float(payload["temperature"]),
                seed=payload.get("seed"))
            texts = server.genclient.sample(server.handle, payload["prompt"], cfg)
            time.sleep(server.delay_s)
            status, body = 200, {"choices": [{"text": t} for t in texts]}
        except Exception as e:  # noqa: BLE001 - every bad request is answered and counted
            status, body = 400, {"error": f"{type(e).__name__}: {e}"}
        try:
            self._send(status, body)
        finally:
            service_s = time.perf_counter() - start
            with server.lock:
                server.active -= 1
                server.requests += 1
                server.busy_s += service_s
                server.non_200 += status != 200
                server.log.append((key, service_s))

    def log_message(self, *args):  # silence request logging
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, genclient, handle, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.genclient = genclient
        self.handle = handle
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.active = 0
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.peak = 0
            self.busy_s = 0.0
            self.non_200 = 0
            self.log: list[tuple[str | None, float]] = []


class LoopbackServer:
    """The server above as a child process of the benchmark."""

    def __init__(self, src: Path, epsilon: float, synth_seed: int, delay_ms: float):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src),
               "--epsilon", repr(epsilon), "--synth-seed", str(synth_seed),
               "--delay-ms", repr(delay_ms)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            port = int(line)
        except ValueError:
            self.close()
            raise RuntimeError("loopback server did not report its port") from None
        base = f"http://127.0.0.1:{port}"
        self.url = base + "/v1/completions"
        self._base = base
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self._base + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the steppref package")
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--synth-seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, default=10.0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from steppref import genclient
    from steppref.synthworld import SynthConfig

    handle = genclient.ProviderHandle.synthetic(SynthConfig(t=1, epsilon=args.epsilon,
                                                            seed=args.synth_seed))
    server = _Server(genclient, handle, args.delay_ms / 1000.0)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

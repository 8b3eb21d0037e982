"""Loopback model backend for the ``wire`` workload.

Usage: python3 wire_server.py DELAY_MS THREADS

Binds 127.0.0.1 on an ephemeral port and prints ``PORT <n>`` on its first
line of output. Each POST of {request_id, tier, prompt_text} is answered
like the ``oracle`` backend after a fixed delay: an extract request gets the
gold record from the marker the synthetic corpus embeds in the document, a
repair request gets the record in the prompt back unchanged. ``GET /stats``
returns {"served": n}, the number of POSTs answered, so the benchmark can
compare it with the client's backend call count.

At most THREADS handler threads exist, one per request the client may have
in flight; further connections wait in the listen backlog.
"""

from __future__ import annotations

import base64
import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

GOLD_MARKER_RE = re.compile(r"%%CASE-GOLD:([A-Za-z0-9+/=]+)%%")
RECORD_RE = re.compile(r"\n## RECORD\n(.*)\n\n## OUTPUT\n", re.DOTALL)


def answer(tier: str, prompt_text: str) -> str:
    if tier == "repair":
        match = RECORD_RE.search(prompt_text)
        return match.group(1) if match else "{}"
    match = GOLD_MARKER_RE.search(prompt_text)
    return base64.b64decode(match.group(1)).decode("utf-8") if match else "{}"


class BoundedServer(HTTPServer):
    def __init__(self, threads: int, delay_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.pool = ThreadPoolExecutor(max_workers=threads)
        self.delay_s = delay_s
        self.served = 0
        self.lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        self.pool.submit(self._handle, request, client_address)

    def _handle(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class Handler(BaseHTTPRequestHandler):
    server: BoundedServer

    def _reply(self, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        with self.server.lock:
            served = self.server.served
        self._reply({"served": served})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        text = answer(payload["tier"], payload["prompt_text"])
        time.sleep(self.server.delay_s)
        with self.server.lock:
            self.server.served += 1
        self._reply({"text": text})

    def log_message(self, format: str, *args) -> None:
        pass


def main(delay_ms: str, threads: str) -> int:
    server = BoundedServer(int(threads), float(delay_ms) / 1000.0)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

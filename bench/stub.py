"""Stand-in chat-completions endpoint on 127.0.0.1 for the llm-stub workload.

Usage: python3 bench/stub.py --verbs V --nouns N --horizon Z

Prints "port <n>" once it listens, then serves until terminated. Every reply
is a pure function of the request's messages and temperature, so pipeline
outputs do not depend on worker count or arrival order. Replies mix plain
comma lists, "1."-style enumerations, unknown tokens and short answers, so
both the skip and the pad paths of the reply parser run. Each POST is held
for a fixed service delay of DELAY_MS; GET /stats returns how many requests were served
and the median service time as measured here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_HISTORY_TOKEN = re.compile(r"verb_\d+ noun_\d+")
_JUNK = ["n/a", "verb_999 noun_000", "open the fridge", "???"]
DELAY_MS = 5.0


def reply_text(request: dict, num_verbs: int, num_nouns: int, horizon: int) -> str:
    key = json.dumps([request["messages"], request["temperature"]], sort_keys=True)
    rng = random.Random(hashlib.sha256(key.encode()).digest())
    history = _HISTORY_TOKEN.findall(request["messages"][-1]["content"])

    def action() -> str:
        if history and rng.random() < 0.7:
            return rng.choice(history)
        noun = rng.randrange(num_nouns)
        return f"verb_{noun % num_verbs:03d} noun_{noun:03d}"

    kind = rng.random()
    if kind < 0.15:  # short reply: the parser pads
        tokens = [action() for _ in range(rng.randrange(horizon))] or [rng.choice(_JUNK)]
    else:
        tokens = [action() for _ in range(horizon)]
    if 0.15 <= kind < 0.35:  # unknown tokens: the parser skips them
        for _ in range(rng.randint(1, 3)):
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_JUNK))
    if 0.35 <= kind < 0.55:
        return "\n".join(f"{i}. {t}" for i, t in enumerate(tokens, 1))
    return ", ".join(tokens)


def serve(num_verbs: int, num_nouns: int, horizon: int) -> None:
    delay = DELAY_MS / 1000.0
    service_ms: list[float] = []
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def _send(self, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            start = time.perf_counter()
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            text = reply_text(request, num_verbs, num_nouns, horizon)
            remaining = delay - (time.perf_counter() - start)
            if remaining > 0:
                time.sleep(remaining)
            self._send({"choices": [{"message": {"role": "assistant", "content": text}}]})
            with lock:
                service_ms.append(1000.0 * (time.perf_counter() - start))

        def do_GET(self):
            with lock:
                samples = list(service_ms)
            median = statistics.median(samples) if samples else 0.0
            self._send({"requests": len(samples), "service_ms_p50": median})

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbs", type=int, required=True)
    parser.add_argument("--nouns", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    args = parser.parse_args()
    serve(args.verbs, args.nouns, args.horizon)


if __name__ == "__main__":
    main()

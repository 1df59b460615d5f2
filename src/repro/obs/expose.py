"""Exposition: Prometheus-style text, an HTTP endpoint, JSON snapshots.

- :func:`render_text` serializes a registry in the Prometheus text format
  (counters get a ``_total``-as-written name, histograms expand into
  cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` series);
- :class:`MetricsHTTPServer` serves ``GET /metrics`` (text) and
  ``GET /metrics.json`` (snapshot) from a daemon thread;
- :class:`SnapshotWriter` writes the JSON snapshot to a file on a fixed
  cadence (atomic rename, so scrapers never read a torn file).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, Tuple

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_text", "MetricsHTTPServer", "SnapshotWriter"]


def _split_series(key: str) -> Tuple[str, str]:
    """``name{labels}`` -> (name, ``{labels}`` or ``""``)."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def render_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every series in the registry."""
    lines = []
    with registry._lock:
        instruments = dict(registry._series)
    for key in sorted(instruments):
        instrument = instruments[key]
        name, labels = _split_series(key)
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(f"# TYPE {name} {instrument.kind}")
            lines.append(f"{key} {instrument.value}")
        elif isinstance(instrument, Histogram):
            snap = instrument.snapshot()
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bucket in snap["buckets"]:
                cumulative += bucket["count"]
                le = bucket["le"]
                le_text = le if isinstance(le, str) else format(le, ".6g")
                series = _merge_labels(labels, f'le="{le_text}"')
                lines.append(f"{name}_bucket{series} {cumulative}")
            lines.append(f"{name}_sum{labels} {snap['sum']}")
            lines.append(f"{name}_count{labels} {snap['count']}")
    return "\n".join(lines) + "\n"


class MetricsHTTPServer:
    """Serves one registry over HTTP from a daemon thread."""

    def __init__(self, registry: MetricsRegistry, host: str = "127.0.0.1",
                 port: int = 0):
        # Imported on use: with metrics off (the default) a replica never
        # loads http.server, which pulls in email, http.client and ssl.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._registry = registry
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path in ("/metrics", "/"):
                    body = render_text(outer._registry).encode()
                    content_type = "text/plain; version=0.0.4"
                elif self.path == "/metrics.json":
                    body = json.dumps(outer._registry.snapshot(),
                                      indent=2).encode()
                    content_type = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are not stdout events

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"metrics-http-{self._server.server_address[1]}",
            daemon=True,
        )

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "MetricsHTTPServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


class SnapshotWriter:
    """Periodically dumps ``registry.snapshot()`` to a JSON file."""

    def __init__(self, registry: MetricsRegistry, path: str,
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._registry = registry
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="metrics-snapshot", daemon=True)

    def _write_once(self) -> None:
        tmp = f"{self._path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self._registry.snapshot(), handle, indent=2)
        os.replace(tmp, self._path)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._write_once()
            except OSError:
                pass  # target directory vanished; keep trying
        try:
            self._write_once()  # final flush on stop
        except OSError:
            pass

    def start(self) -> "SnapshotWriter":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

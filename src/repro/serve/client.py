"""Control-plane client (the library behind ``repro ctl``)."""

from __future__ import annotations

import socket
import time
from typing import Any, Dict

from .protocol import LineChannel, ProtocolError


class CtlError(Exception):
    """The daemon answered ``ok: false`` (carries its error string)."""


class CtlClient:
    """One control-plane connection to a serving daemon.

    >>> with CtlClient("/tmp/ehdl.sock") as ctl:
    ...     ctl.call("map_update", program="fw", map="flows",
    ...              key="0a000001...", value=1)
    ...     ctl.call("swap", name="fw", program="app:firewall")
    """

    def __init__(self, socket_path: str, timeout: float = 60.0) -> None:
        self.socket_path = socket_path
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(socket_path)
        self._channel = LineChannel(sock)
        self._next_id = 0

    @classmethod
    def wait_for(cls, socket_path: str, timeout: float = 30.0,
                 poll: float = 0.05) -> "CtlClient":
        """Connect to a daemon that may still be starting up."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return cls(socket_path)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def call(self, op: str, **params: Any) -> Any:
        """One request/response round trip; returns the result payload."""
        self._next_id += 1
        request: Dict[str, Any] = {"id": self._next_id, "op": op}
        request.update(params)
        self._channel.send(request)
        response = self._channel.recv()
        if response is None:
            raise ProtocolError("daemon closed the connection")
        if response.get("id") != self._next_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        if not response.get("ok"):
            raise CtlError(response.get("error", "unknown error"))
        return response.get("result")

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "CtlClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

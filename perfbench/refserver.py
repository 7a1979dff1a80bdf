"""The reference process of ``serve_mix``: one pooled ``reference_work`` per message.

    python3 perfbench/refserver.py FD

``FD`` is an inherited connected socket.  Each byte received is answered
with one byte once a one-worker ``ProcessPoolExecutor`` has run
``common.reference_work``; the process exits when the other end closes.
``serve_mix`` times the round trip as its speed probe (see
``serve_mix.ReferenceRequest``).
"""

from __future__ import annotations

import socket
import sys
from concurrent.futures import ProcessPoolExecutor

from common import reference_work


def main() -> int:
    with ProcessPoolExecutor(max_workers=1) as pool, \
            socket.socket(fileno=int(sys.argv[1])) as sock:
        pool.submit(reference_work).result()  # the worker is up before the first sample
        sock.sendall(b"r")
        while sock.recv(1):
            pool.submit(reference_work).result()
            sock.sendall(b"x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

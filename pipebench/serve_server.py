"""The ``serve`` workload's server process: ``repro-serve`` with defaults.

Started by ``wl_serve.py`` as ``python3 serve_server.py STORE SPOOL
TRACE``.  Boots :class:`repro.serve.service.AnalysisService` on an
ephemeral port with its default configuration (one pool worker) and the
store rooted at ``STORE``, prints ``{"port": N}`` on stdout, then obeys
line commands on stdin:

* ``trace 1`` / ``trace 0`` -- start / stop recording spans (``TRACE=1``
  installs the wrappers; the switch reaches the forked pool worker
  through shared memory);
* ``dump`` -- append this process's spans to ``SPOOL``;
* ``quit`` or end of input -- stop the service, wait for its pool
  worker, exit.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import sys

import common


def main(argv) -> int:
    store, spool, trace = argv[0], argv[1], argv[2] == "1"
    common.require_program()
    import ledger
    from repro.serve.service import AnalysisService, ServeConfig

    tracer = None
    if trace:
        flag = multiprocessing.get_context("fork").RawValue("b", 0)
        tracer = ledger.Tracer(spool, flag=flag)
        ledger.install(tracer)
    config = ServeConfig(port=0, cache_dir=store, workers=1)

    async def serve() -> None:
        service = AnalysisService(config)
        await service.start()
        # commands arrive on fd 0 through the event loop: a thread blocked
        # in sys.stdin would hold its buffer lock across the pool's fork,
        # and the forked worker deadlocks closing its stdin
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader),
            open(0, "rb", buffering=0, closefd=False))
        print(json.dumps({"port": service.port}), flush=True)
        while True:
            cmd = (await reader.readline()).decode().split()
            if not cmd or cmd == ["quit"]:
                break
            if cmd[0] == "trace" and tracer is not None:
                tracer.flag.value = int(cmd[1])
            elif cmd == ["dump"] and tracer is not None:
                tracer.flush()
                print(json.dumps({"dumped": True}), flush=True)
        await service.stop()

    asyncio.run(serve())
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Seeded RPR008: blocking calls directly in async defs."""

import time
from subprocess import run


async def load(path):
    # seeded 1: builtin file I/O on the event loop
    with open(path) as fh:
        return fh.read()


async def pause():
    # seeded 2: a sleep that stalls every connection
    time.sleep(0.05)


async def rotate(args):
    # seeded 3: an import alias of subprocess.run
    return run(args)

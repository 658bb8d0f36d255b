"""Twin of bad_rpr008: the same work off the event loop."""

import asyncio


def _read(path):
    with open(path) as fh:
        return fh.read()


async def load(path):
    return await asyncio.to_thread(_read, path)


async def pause():
    await asyncio.sleep(0.05)

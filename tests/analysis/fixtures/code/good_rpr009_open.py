"""Twin of bad_rpr009_open: the helper chain runs on a worker thread."""

import asyncio


def _load(path):
    with open(path) as fh:
        return fh.read()


def _config(path):
    return _load(path)


async def handle(path):
    return await asyncio.to_thread(_config, path)

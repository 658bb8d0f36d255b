"""Seeded RPR009: an async def reaches builtin open through helpers."""


def _load(path):
    with open(path) as fh:
        return fh.read()


def _config(path):
    return _load(path)


async def handle(path):
    # seeded 1: handle -> _config -> _load -> open
    return _config(path)

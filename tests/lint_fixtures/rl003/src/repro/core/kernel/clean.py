"""RL003 fixture: module-level dispatch function."""


def _run_chunk(chunk: object) -> object:
    return chunk


def _fan_out(executor: object, chunks: list) -> list:
    return list(executor.map(_run_chunk, chunks))

"""RL003 fixture: lambda dispatch, explicitly suppressed."""


def _fan_out(executor: object, chunks: list) -> list:
    return list(executor.map(lambda chunk: chunk, chunks))  # reprolint: disable=RL003 -- fixture exercising suppression

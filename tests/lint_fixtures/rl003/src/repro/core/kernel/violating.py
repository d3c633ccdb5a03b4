"""RL003 fixture: unpicklable callables handed to an executor."""


class _Fan:
    def _method(self, chunk: object) -> object:
        return chunk

    def fan_out(self, executor: object, chunks: list) -> list:
        return list(executor.map(self._method, chunks))


def _fan_out(executor: object, chunks: list) -> list:
    def _local(chunk: object) -> object:
        return chunk

    results = [executor.submit(_local, chunk) for chunk in chunks]
    results += list(executor.map(lambda chunk: chunk, chunks))
    return results

import pytest

from tropmeas import transport


@pytest.fixture
def kernel_calls(monkeypatch):
    """The pair count of every transport.measure_distances call, the kernel
    that fills a lifted space's distance matrix."""
    calls = []
    real = transport.measure_distances

    def counted(measures, rows, cols):
        calls.append(len(rows))
        return real(measures, rows, cols)

    monkeypatch.setattr(transport, "measure_distances", counted)
    return calls

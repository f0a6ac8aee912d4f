import pytest

from tropmeas import spaces, transport


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


@pytest.fixture
def lookups(monkeypatch):
    """The measure of every spaces._first_close call, the one point lookup
    that the builder's dedupe and index_of_measure share."""
    calls = []
    real = spaces._first_close

    def counted(points, by_atoms, mu):
        calls.append(mu)
        return real(points, by_atoms, mu)

    monkeypatch.setattr(spaces, "_first_close", counted)
    return calls

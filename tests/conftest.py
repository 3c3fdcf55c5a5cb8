import pytest

from wonder import io
from wonder.engine import build_ring
from wonder.models import fm_power, keel_model


@pytest.fixture(scope="session")
def fm3_diagram():
    diagram = fm_power("p1", 3)
    diagram.validate().raise_if_failed()
    return diagram


@pytest.fixture(scope="session")
def fm3_ring(fm3_diagram):
    return build_ring(fm3_diagram, validate=False)


@pytest.fixture(scope="session")
def fm4_diagram():
    diagram = fm_power("p1", 4)
    diagram.validate().raise_if_failed()
    return diagram


@pytest.fixture(scope="session")
def fm4_ring(fm4_diagram):
    return build_ring(fm4_diagram, validate=False)


@pytest.fixture(scope="session")
def fm5_ring():
    return build_ring(fm_power("p1", 5), validate=False)


@pytest.fixture(scope="session")
def keel2_diagram():
    diagram = keel_model(2)
    diagram.validate().raise_if_failed()
    return diagram


@pytest.fixture(scope="session")
def keel2_ring(keel2_diagram):
    return build_ring(keel2_diagram, validate=False)


@pytest.fixture(scope="session")
def keel3_diagram():
    diagram = keel_model(3)
    diagram.validate().raise_if_failed()
    return diagram


@pytest.fixture(scope="session")
def keel3_ring(keel3_diagram):
    return build_ring(keel3_diagram, validate=False)


@pytest.fixture(scope="session")
def curve3_diagram():
    diagram = fm_power("curve", 3, genus=2)
    diagram.validate().raise_if_failed()
    return diagram


@pytest.fixture(scope="session")
def curve3_ring(curve3_diagram):
    return build_ring(curve3_diagram, validate=False)


@pytest.fixture(scope="session")
def strip_symmetry():
    """The same diagram with no declared symmetry: it runs with the trivial
    group, as every diagram did before diagrams could declare one."""

    def strip(diagram):
        payload = io.diagram_payload(diagram)
        payload.pop("symmetry", None)
        return io.diagram_from_payload(payload)

    return strip

"""Fixtures shared by several test modules."""
import pytest

from gskit import kernels, mapping


@pytest.fixture(scope="session")
def criterion_map():
    """(labels, meta) of criterion 10's 200x200 fast map over
    (1e-9, 0.07)^2 on one worker, built once per session on the first
    available backend: the C kernels where they built, since both backends
    return the same labels (tests/test_kernels.py) and the pure map takes
    about 16 s."""
    backend = kernels.get_backend()
    try:
        kernels._use_backend(kernels.available_backends()[0])
        return mapping.region_map((1e-9, 0.07), (1e-9, 0.07), 200, 200,
                                  threads=1)
    finally:
        kernels._use_backend(backend)

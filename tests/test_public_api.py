"""The public API surface: everything advertised in repro.__all__ exists,
and the README quick-start runs verbatim."""

from __future__ import annotations

import random

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), "missing export %s" % name


def test_version():
    assert repro.__version__


def test_readme_quickstart():
    stream = repro.Stream.from_items(8, [1, 3, 3, 5, 7, 7, 7])
    result = repro.self_join_size_protocol(
        stream, repro.DEFAULT_FIELD, rng=random.Random(42)
    )
    assert result.accepted and result.value == stream.self_join_size()


def test_default_field_constant():
    assert repro.DEFAULT_FIELD.p == repro.MERSENNE_61 == 2**61 - 1
    assert repro.MERSENNE_127 == 2**127 - 1


def test_subpackages_importable():
    import repro.adversary
    import repro.comm
    import repro.core
    import repro.experiments
    import repro.field
    import repro.gkr
    import repro.lde
    import repro.streams

    for module in (
        repro.adversary,
        repro.comm,
        repro.core,
        repro.experiments,
        repro.field,
        repro.gkr,
        repro.lde,
        repro.streams,
    ):
        assert module.__doc__


def test_verification_result_truthiness():
    stream = repro.Stream.from_items(8, [1])
    result = repro.self_join_size_protocol(
        stream, repro.DEFAULT_FIELD, rng=random.Random(0)
    )
    assert bool(result) is True

"""Repo-wide pytest options (the suites live in tests/, benchmarks/, bench/)."""


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record", action="store_true",
        help="let the benchmarks/ recorders rewrite BENCH_vectorized.json "
             "and BENCH_service.json (a plain run leaves tracked files "
             "alone)",
    )

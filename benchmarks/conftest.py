"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures (or one of its
quantitative claims) and *prints the same rows the paper reports* before
asserting the reproduced shape.  Run with::

    pytest benchmarks/ --benchmark-only -s

(-s shows the regenerated tables; EXPERIMENTS.md archives one run.)
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact with a recognizable banner."""
    bar = "=" * max(8, len(title))
    print(f"\n{bar}\n{title}\n{bar}\n{body}")

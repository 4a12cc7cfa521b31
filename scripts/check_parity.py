"""Driver-style parity check CLI.

Usage: python scripts/check_parity.py [sf_dir] [query ...]

Exits 1 on a parity failure and 2, before starting Ray, when a named query
does not exist.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    import __ray_entry__ as e

    unknown = sorted(set(sys.argv[2:]) - set(e.queries()))
    if unknown:
        print(f"unknown query names: {unknown}", file=sys.stderr)
        return 2

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from splunk_otel_collector_ray.oracle_check import run_parity

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:]) or None
    fails = run_parity(sf, only)
    print(f"\n{len(fails)} failures" + (f": {[n for n, _ in fails]}" if fails else ""))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())

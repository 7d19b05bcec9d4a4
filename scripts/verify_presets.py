#!/usr/bin/env python3
"""Run the full verification stack over every named example in
presets.SHIPPED and print a one-line summary per preset: axiom status,
simple count, timing."""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bicrossed.certs import dimension_audit
from bicrossed.cocycles import is_unitary, verify_cocycles
from bicrossed.comodules import SimpleIndex
from bicrossed.config import build_config
from bicrossed.hopf import verify_hopf, verify_star
from bicrossed.matched_pair import verify_matched_pair
from bicrossed.presets import SHIPPED, resolve_preset


def main() -> int:
    radius = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    failures = 0
    for name in SHIPPED:
        t0 = time.time()
        build = build_config(resolve_preset(name))
        ok_mp = verify_matched_pair(build.ctx, radius).ok
        ok_cc = verify_cocycles(build.ctx, build.sigma, build.tau, radius).ok
        ok_hopf = verify_hopf(build.hopf, radius).ok
        unitary, _ = is_unitary(build.sigma, build.tau, build.ctx, radius)
        ok_star = verify_star(build.hopf, radius).ok if unitary else False
        index = SimpleIndex(build.hopf)
        audit = dimension_audit(build.hopf, index, radius)
        n_simples = len(index.enumerate(radius))
        ok = ok_mp and ok_cc and ok_hopf and ok_star and audit["ok"]
        failures += 0 if ok else 1
        print(
            f"{name:<14} {'PASS' if ok else 'FAIL'}  "
            f"matched={ok_mp} cocycles={ok_cc} hopf={ok_hopf} star={ok_star} "
            f"audit={audit['ok']} simples={n_simples}  ({time.time() - t0:.2f}s)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

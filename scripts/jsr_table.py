"""Tabulate exhaustive joint-spectral-radius upper bounds against the limit.

Example:
    python3 scripts/jsr_table.py -b 3 -m 2 -n 6
"""

import argparse

from holeshift import dominant_root, jsr_upper_exhaustive, make_params


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-b", type=int, default=3)
    ap.add_argument("-m", type=int, default=2)
    ap.add_argument("-n", type=int, default=6, help="max product depth")
    ap.add_argument("--budget", type=int, default=10**7)
    args = ap.parse_args()

    p = make_params(args.b, args.m)
    lam = dominant_root("lambda", p).value
    rep = jsr_upper_exhaustive(p, args.n, budget=args.budget)

    print(f"b={p.b} m={p.m}  lambda={lam:.12f}  nodes={rep.nodes_expanded}")
    print(f"{'n':>3} {'max norm':>12} {'bound':>14} {'excess':>10} {'po match':>9}")
    for i, n in enumerate(rep.depths):
        print(
            f"{n:>3} {rep.max_norms[i]:>12} {rep.upper_values[i]:>14.9f}"
            f" {rep.upper_values[i] - lam:>10.2e}"
            f" {'yes' if rep.max_norms[i] == rep.po_norms[i] else 'NO':>9}"
        )


if __name__ == "__main__":
    main()

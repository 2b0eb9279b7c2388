"""Joint spectral radius of the transition family {A_w : w in D^m}.

The JSR of the full family equals the PO growth rate lambda: progressively
overlapping words maximize the product norm at every depth, so the depth-n
exhaustive maximum equals the PO survivor count at stage n+m-1 exactly, and
the normalized values max^(1/n) decrease to lambda from above.  Periodic
products whose pattern is PO realize the value exactly, giving finiteness
certificates.

The exhaustive search runs layer by layer over distinct count vectors:
the depth-d norm of a block sequence depends only on the count vector it
reaches, and most sequences reach the same few, so each layer keeps one
entry per distinct vector.  The budget counts (vector, word) expansions
as the search makes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import _step_exact, adjacency_matrix, count_exact
from .model import Params, Word, check_word
from .schedules import gen_progressive
from .spectra import dominant_root, mat_mul, spectral_radius


class JsrError(ValueError):
    """Invalid JSR computation request."""


@dataclass
class JsrReport:
    """Depth-by-depth exhaustive norm maxima and the PO reference values."""

    params: Params
    depths: list[int]
    max_norms: list[int]
    upper_values: list[float]
    po_norms: list[int]
    po_matches: bool
    nodes_expanded: int  # (vector, word) expansions over distinct vectors


def _require_blocks(p: Params) -> None:
    if p.m < 2:
        raise JsrError("transition blocks need m >= 2")


def _search(p: Params, n: int, budget: int, links: bool = False):
    """Yield layers 1..n of the search and the expansions made so far.

    Layer d maps each distinct count vector that a depth-d block sequence
    reaches to the (parent vector, word) links into it, or to None when
    links is false.  Zero vectors are kept but not expanded.  Raises
    JsrError once the (vector, word) expansions pass the budget.
    """
    _require_blocks(p)
    if n < 1:
        raise JsrError(f"depth must be >= 1, got {n}")
    layer = dict.fromkeys([(1,) * p.state_count])
    expanded = 0
    for d in range(1, n + 1):
        nxt: dict = {}
        for counts in layer:
            if not any(counts):
                continue
            expanded += p.word_count
            if expanded > budget:
                raise JsrError(
                    f"search passed the budget of {budget} distinct expansions "
                    f"at depth {d} of {n}"
                )
            for w in range(p.word_count):
                child = tuple(_step_exact(counts, (w,), p))
                if links:
                    nxt.setdefault(child, []).append((counts, w))
                else:
                    nxt[child] = None
        layer = nxt
        yield layer, expanded


def jsr_upper_po(p: Params, n: int) -> int:
    """PO survivor count at stage n+m-1, the depth-n product norm maximum."""
    _require_blocks(p)
    return count_exact(gen_progressive(p, (0,)), n + p.m - 1)


def jsr_upper_exhaustive(p: Params, n: int, budget: int = 10**7) -> JsrReport:
    """Exhaustive depth-n norm maxima with the PO cross-check."""
    best = []
    expanded = 0
    for layer, expanded in _search(p, n, budget):
        best.append(max(map(sum, layer)))
    po = [jsr_upper_po(p, d) for d in range(1, n + 1)]
    return JsrReport(
        params=p,
        depths=list(range(1, n + 1)),
        max_norms=best,
        upper_values=[v ** (1.0 / d) for d, v in zip(range(1, n + 1), best)],
        po_norms=po,
        po_matches=best == po,
        nodes_expanded=expanded,
    )


def exhaustive_maxima(
    p: Params, n: int, budget: int = 10**7
) -> tuple[int, list[tuple[int, ...]]]:
    """All depth-n block sequences attaining the maximal product norm.

    Returns (max_norm, sequences) with each sequence a tuple of packed
    words, sorted lexicographically.
    """
    layers = [None] + [layer for layer, _ in _search(p, n, budget, links=True)]
    best = max(map(sum, layers[n]))

    def paths(d, counts):
        if d == 0:
            return [()]
        return [seq + (w,) for parent, w in layers[d][counts] for seq in paths(d - 1, parent)]

    tops = [counts for counts in layers[n] if sum(counts) == best]
    return best, sorted(seq for counts in tops for seq in paths(n, counts))


@dataclass
class FinitenessReport:
    """Spectral data of one periodic block product against the PO rate."""

    params: Params
    words: tuple[Word, ...]
    period: int
    rho: float
    rate: float
    lambda_value: float
    achieves: bool


def finiteness_check(p: Params, words) -> FinitenessReport:
    """Whether the periodic product over `words` realizes the JSR.

    Computes rho(A_{w_1} ... A_{w_n})^(1/n) exactly enough to compare with
    lambda at 1e-9 relative tolerance.
    """
    _require_blocks(p)
    ws = [tuple(w) for w in words]
    if not ws:
        raise JsrError("need at least one word")
    for w in ws:
        check_word(w, p, length=p.m)
    mats = [adjacency_matrix(p, [w]).to_dense() for w in ws]
    prod = mats[0]
    for mat in mats[1:]:
        prod = mat_mul(prod, mat)
    rho = spectral_radius(prod)
    rate = rho ** (1.0 / len(ws))
    lam = dominant_root("lambda", p).value
    return FinitenessReport(
        params=p,
        words=tuple(ws),
        period=len(ws),
        rho=rho,
        rate=rate,
        lambda_value=lam,
        achieves=abs(rate - lam) <= 1e-9 * lam,
    )

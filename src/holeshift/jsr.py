"""Joint spectral radius of the transition family {A_w : w in D^m}.

The JSR of the full family equals the PO growth rate lambda: progressively
overlapping words maximize the product norm at every depth, so the depth-n
exhaustive maximum equals the PO survivor count at stage n+m-1 exactly, and
the normalized values max^(1/n) decrease to lambda from above.  Periodic
products whose pattern is PO realize the value exactly, giving finiteness
certificates.
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
    nodes_expanded: int


def _require_blocks(p: Params) -> None:
    if p.m < 2:
        raise JsrError("transition blocks need m >= 2")


def _budget_guard(p: Params, n: int, budget: int) -> None:
    nodes = 0
    layer = 1
    for _ in range(n):
        layer *= p.word_count
        nodes += layer
        if nodes > budget:
            raise JsrError(
                f"exhaustive search needs ~{p.word_count}^{n} node expansions, "
                f"over the budget of {budget}"
            )


def _dfs_maxima(p: Params, n: int) -> tuple[list[int], int]:
    """Max product norm per depth 1..n, DFS over block sequences."""
    best = [0] * (n + 1)
    init = [1] * p.state_count
    stack = [(1, _step_exact(init, (w,), p)) for w in reversed(range(p.word_count))]
    expanded = len(stack)
    while stack:
        depth, counts = stack.pop()
        total = sum(counts)
        if total > best[depth]:
            best[depth] = total
        if depth == n or total == 0:
            continue
        for w in range(p.word_count):
            stack.append((depth + 1, _step_exact(counts, (w,), p)))
            expanded += 1
    return best[1:], expanded


def jsr_upper_po(p: Params, n: int) -> int:
    """PO survivor count at stage n+m-1, the depth-n product norm maximum."""
    _require_blocks(p)
    return count_exact(gen_progressive(p, (0,)), n + p.m - 1)


def jsr_upper_exhaustive(p: Params, n: int, budget: int = 10**7) -> JsrReport:
    """Exhaustive depth-n norm maxima with the PO cross-check."""
    _require_blocks(p)
    if n < 1:
        raise JsrError(f"depth must be >= 1, got {n}")
    _budget_guard(p, n, budget)
    best, expanded = _dfs_maxima(p, n)
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
    _require_blocks(p)
    if n < 1:
        raise JsrError(f"depth must be >= 1, got {n}")
    _budget_guard(p, n, budget)
    best = 0
    argmax: list[tuple[int, ...]] = []
    init = [1] * p.state_count
    stack = [((w,), _step_exact(init, (w,), p)) for w in reversed(range(p.word_count))]
    while stack:
        seq, counts = stack.pop()
        if len(seq) == n:
            total = sum(counts)
            if total > best:
                best = total
                argmax = [seq]
            elif total == best:
                argmax.append(seq)
            continue
        if sum(counts) == 0:
            continue
        for w in reversed(range(p.word_count)):
            stack.append((seq + (w,), _step_exact(counts, (w,), p)))
    return best, sorted(argmax)


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

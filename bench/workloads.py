"""Seeded workloads for the walgebra benchmark.

Each workload is a list of Jobs.  A job's ``prepare`` builds its inputs and
a fresh context outside the timed span: caches live on contexts, users pay
for them cold each time they build one, so every operation starts from a
fresh context.  ``run`` is the timed call into the public walgebra API,
``certify`` checks the result independently of the code that produced it,
and ``canonical`` renders the result as plain JSON data whose digest shows
whether an output changed.

The default seed (0) gives the reference instances.  Any other seed picks
instances of the same size and kind and shuffles the job order:

- ``wspace``: job order only.  Other pyramids and isotropic ranks of the
  same shapes cost between 0.5 s and 6.9 s where the reference ones cost
  0.8 s to 2.1 s, and the even alternatives drop the p/q symbols this
  workload exists to exercise.
- ``straighten``: E_ji^k E_ij^k for another pair i < j, in U(gl_3).
- ``brst``: another even pyramid of shape (4, 2); the other shapes have one.
- ``sweep``: job order only; the sweep covers every pyramid of N = 7.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Imported as modules, never by name, so that the tracer's rebinding of
# module attributes also reaches the calls made from this file.
from walgebra import (brst, gl, partitions, pbw, polytope,  # noqa: E402
                      pyramids, structure)

WORKLOADS = ("wspace", "straighten", "brst", "sweep")


@dataclass
class Job:
    key: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    certify: Callable[[Any, Any], bool]
    canonical: Callable[[Any], Any]


@dataclass(frozen=True)
class Size:
    """Instance sizes of every workload; tests use a tiny one."""

    wspace: tuple[tuple[tuple[int, ...], int], ...]
    straighten_k: int
    rdet_n: int
    brst: tuple[tuple[int, ...], ...]
    sweep_n: int


FULL = Size(wspace=(((4,), 10), ((3, 2), 6), ((2, 1, 1), 6)),
            straighten_k=10, rdet_n=7,
            brst=((6,), (3, 3), (4, 2), (2, 2, 2)), sweep_n=7)

TINY = Size(wspace=(((2,), 4), ((2, 1), 3)), straighten_k=3, rdet_n=3,
            brst=((2,), (2, 2)), sweep_n=3)


# -- canonical outputs ----------------------------------------------------------

def _q(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _pbw_terms(u) -> list:
    names = u.ctx.symbols
    return [[[names[s].name for s in w], _q(c)]
            for w, c in sorted(u.terms.items())]


def _gl_terms(x) -> list:
    return [[i, j, _q(c)] for (i, j), c in sorted(x.entries.items())]


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- wspace ---------------------------------------------------------------------

def monomial_counts(degrees: list[int], max_degree: int) -> dict[int, int]:
    """Monomials in commuting variables of the given degrees, per total
    degree up to max_degree (nonzero counts only)."""
    counts = [1] + [0] * max_degree
    for d in degrees:
        for t in range(d, max_degree + 1):
            counts[t] += counts[t - d]
    return {t: c for t, c in enumerate(counts) if c}


def _wspace_job(shape: tuple[int, ...], degree: int) -> Job:
    pyr = pyramids.dynkin_pyramid(partitions.Partition(shape))

    def prepare():
        return pbw.PbwContext.from_pyramid(pyr)

    def certify(ctx, basis) -> bool:
        dims = {d: len(v) for d, v in basis.items()}
        if dims != monomial_counts(structure.slodowy_degrees(pyr), degree):
            return False
        over = list(ctx.n_basis)
        return all(ctx.is_whittaker_invariant(w, over)
                   for ws in basis.values() for w in ws)

    def canonical(basis):
        return {str(d): [_pbw_terms(w) for w in ws]
                for d, ws in sorted(basis.items())}

    return Job(f"wspace{shape}@{degree}", prepare,
               lambda ctx: ctx.w_space_basis(degree), certify, canonical)


# -- straighten -----------------------------------------------------------------

def _runs(word: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """A word of units E_ab as runs (a, b, power) of equal letters."""
    runs: list[list[int]] = []
    for a, b in word:
        if runs and runs[-1][:2] == [a, b]:
            runs[-1][2] += 1
        else:
            runs.append([a, b, 1])
    return [tuple(r) for r in runs]


def act_on_monomial(runs, expo: tuple[int, ...]):
    """Apply E_ab -> x_a d/dx_b along a word, rightmost run first, to the
    monomial with exponents expo.  The image of a monomial is a multiple of
    one monomial: returns (coefficient, exponents), or (0, None)."""
    expo = list(expo)
    coeff = 1
    for a, b, p in reversed(runs):
        e = expo[b]
        if a == b:
            coeff *= e ** p
        elif e < p:
            return 0, None
        else:
            for t in range(p):
                coeff *= e - t
            expo[b] -= p
            expo[a] += p
        if not coeff:
            return 0, None
    return coeff, tuple(expo)


def monomials_up_to(n: int, top: int) -> list[tuple[int, ...]]:
    """Exponent vectors of every monomial of degree 0..top in n variables."""
    if n == 1:
        return [(e,) for e in range(top + 1)]
    return [(e, *rest) for e in range(top + 1)
            for rest in monomials_up_to(n - 1, top - e)]


def acts_equal(ctx, u, word: list[tuple[int, int]], test) -> bool:
    """Whether the PBW element u of the standard context and the word of
    units act alike on every monomial in test, under E_ab -> x_a d/dx_b.
    This representation of U(gl_n) is not faithful, so agreement is
    evidence, not proof."""
    unit = {s: next(iter(sym.gl.entries)) for s, sym in enumerate(ctx.symbols)}
    terms = [(c, _runs([unit[s] for s in w])) for w, c in u.terms.items()]
    lhs = _runs(word)
    for expo in test:
        c, e = act_on_monomial(lhs, expo)
        expected = {e: c} if c else {}
        got: dict = {}
        for coeff, runs in terms:
            c, e = act_on_monomial(runs, expo)
            if c:
                got[e] = got.get(e, 0) + coeff * c
        if {e: v for e, v in got.items() if v} != expected:
            return False
    return True


def _straighten_job(n: int, i: int, j: int, k: int) -> Job:
    def prepare():
        ctx = pbw.PbwContext.standard(n)
        (wji,) = ctx.from_gl(gl.GlElement.unit(n, j, i)).terms
        (wij,) = ctx.from_gl(gl.GlElement.unit(n, i, j)).terms
        left = pbw.PbwElement(ctx, {wji * k: Fraction(1)})
        right = pbw.PbwElement(ctx, {wij * k: Fraction(1)})
        return ctx, left, right

    def certify(state, prod) -> bool:
        return acts_equal(state[0], prod, [(j, i)] * k + [(i, j)] * k,
                          monomials_up_to(n, 2 * k))

    return Job(f"straighten gl{n} E{j + 1}{i + 1}^{k}*E{i + 1}{j + 1}^{k}",
               prepare, lambda s: s[0].multiply(s[1], s[2]), certify,
               _pbw_terms)


def _rdet_job(n: int) -> Job:
    pyr = pyramids.dynkin_pyramid(partitions.Partition((n,)))

    def certify(ctx, gens) -> bool:
        return len(gens) == n and all(ctx.is_whittaker_invariant(w)
                                      for w in gens)

    return Job(f"rdet{n}", lambda: pbw.PbwContext.from_pyramid(pyr),
               lambda ctx: ctx.rdet_w_generators(), certify,
               lambda gens: [_pbw_terms(w) for w in gens])


# -- brst -----------------------------------------------------------------------

def _brst_job(pyr) -> Job:
    return Job(f"brst{pyr.shape.parts}{pyr.left}",
               lambda: brst.BrstContext(pyr),
               lambda ctx: ctx.check_d_squared(),
               lambda ctx, rep: rep["all_zero"] and rep["phi_matches"],
               lambda rep: rep)


def _even_pyramids(shape: tuple[int, ...]) -> list:
    return [p for p in pyramids.enumerate_pyramids(partitions.Partition(shape))
            if pyramids.is_even(p)]


# -- sweep ----------------------------------------------------------------------

def _pyramid_job(pyr) -> Job:
    def prepare():
        return pyramids.grading_of(pyr), pyramids.nilpotent_of(pyr)

    def run(state):
        grading, e = state
        return (structure.check_good(grading, e),
                structure.slodowy_degrees(pyr),
                pbw.PbwContext.from_pyramid(pyr))

    def certify(state, out) -> bool:
        report, degrees, _ = out
        return (report.all_pass
                and len(degrees) == partitions.centralizer_dim(pyr.shape))

    def canonical(out):
        report, degrees, ctx = out
        symbols = [[s.name, s.degree, s.kind, _q(s.chi), _gl_terms(s.gl)]
                   for s in ctx.symbols]
        return [report.to_json(), degrees, symbols]

    return Job(f"sweep{pyr.shape.parts}{pyr.left}", prepare, run, certify,
               canonical)


def _polytope_job(lam) -> Job:
    def prepare():
        return len(pyramids.enumerate_pyramids(lam))

    def run(_):
        points = polytope.integral_good_points(lam)
        pairs = [(p, q) for t, p in enumerate(points) for q in points[t + 1:]
                 if polytope.adjacent(lam, p, q)]
        return points, [(p, q, polytope.common_m_for_adjacent(lam, p, q))
                        for p, q in pairs]

    def certify(n_pyramids, out) -> bool:
        points, pairs = out
        return len(points) == n_pyramids and all(m[2] for _, _, m in pairs)

    def canonical(out):
        points, pairs = out
        return [[list(p) for p in points],
                [[list(p), list(q), [_gl_terms(x) for x in m_p.basis],
                  [_gl_terms(x) for x in m_q.basis], equal]
                 for p, q, (m_p, m_q, equal) in pairs]]

    return Job(f"polytope{lam.parts}", prepare, run, certify, canonical)


# -- generation -----------------------------------------------------------------

def make_jobs(workload: str, seed: int, size: Size = FULL) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    rng = random.Random(seed)
    if workload == "wspace":
        jobs = [_wspace_job(shape, deg) for shape, deg in size.wspace]
    elif workload == "straighten":
        if seed == 0:
            n, i, j = 2, 0, 1
        else:
            n = 3
            i, j = rng.choice([(0, 1), (0, 2), (1, 2)])
        jobs = [_straighten_job(n, i, j, size.straighten_k),
                _rdet_job(size.rdet_n)]
    elif workload == "brst":
        jobs = []
        for shape in size.brst:
            evens = _even_pyramids(shape)
            dynkin = pyramids.dynkin_pyramid(partitions.Partition(shape))
            jobs.append(_brst_job(dynkin if seed == 0 else rng.choice(evens)))
    elif workload == "sweep":
        lams = partitions.partitions_of(size.sweep_n)
        jobs = [_pyramid_job(p) for lam in lams
                for p in pyramids.enumerate_pyramids(lam)]
        jobs += [_polytope_job(lam) for lam in lams]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if seed != 0:
        rng.shuffle(jobs)
    return jobs

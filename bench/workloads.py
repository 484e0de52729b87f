"""The three workloads: seeded inputs, the operations of one cycle, their checks.

Each workload builds, from its seed, a fixed list of operations (one
cycle). An operation is one public library call or one CLI child process,
with a check that compares its output against an answer known by
construction, a reference computed in ``oracle.py``, or another route of
the library. The runner repeats whole cycles, so every run sees the same
mix of operations whatever its length.

Why these workloads:

* chain-kernels: the m! sweeps and 4^m lattice DPs in represent,
  recursion, choquet and chains do almost all the work; lawinv and cli do
  none. Submodular inputs scan everything, generic ones stop at the first
  witness, so a change that speeds the full scan but slows the early exit
  shows.
* law-invariant: the rearrangement enumeration in lawinv and the exchange
  test in setfn at m = 12..14 dominate; represent and recursion are idle.
  Uniform and general reference measures fall on the two sides of a
  sorted-pairing shortcut for the rearrangement supremum.
* cli-docs: process start, import, JSON parse and emit and run-record
  writes dominate, the kernels are small. spectral with distinct densities
  at m >= 10 is left out: its m! enumeration does not finish.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs as gen
import oracle

# Ground sizes and counts per cycle. Chosen so that a cycle fits in one
# 25 s run and the latency percentiles fall inside groups of operations of
# similar cost, not at a boundary between groups.
CHAIN_PLAN = {6: (6, 4), 7: (1, 2), 8: (2, 2)}  # m -> (submodular, generic)
CHAIN_QUERIES = {6: 1, 7: 2, 8: 2}  # m -> seeded subsets for sup/inf_over_chains
UNIFORM_PLAN = {6: 6, 7: 5, 8: 1}
GENERAL_PLAN = {9: 5, 10: 5}
VMU_SIZES = (12, 13, 14)
SPECTRAL_INTEGRANDS = 3  # per space; the first also feeds product and domination
COMONOTONE_MAX_M = 7  # comonotone_attainment at m = 8 alone costs ~4 s
# The CLI kernels stay small: at m = 7 only generic documents, which the
# equivalence report rejects early; m = 6 submodular documents give the
# group of ~0.3 s operations the 90th percentile falls in.
CLI_SMALL_PLAN = {4: (3, 4), 5: (3, 3), 6: (5, 2), 7: (0, 3)}
CLI_SPECTRAL_SIZES = (4, 5, 6)
CLI_LARGE_SIZES = (14, 16)
CLI_CHECK_LARGE = 12


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    defect: str | None = None  # the known defect this operation exercises


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def _expect(cond: bool, why: str) -> str | None:
    return None if cond else why


def _first_failure(*checks):
    for c in checks:
        reason = c() if callable(c) else c
        if reason:
            return reason
    return None


def _interleave(rng: random.Random, groups: list[list[Op]]) -> list[Op]:
    """Shuffle the per-input groups of operations into one cycle.

    Operations of one kind are spread over the cycle, so a slow stretch of
    the machine does not land on one kind alone; each group keeps its
    order, because later operations may use earlier outputs.
    """
    rng.shuffle(groups)
    return [op for group in groups for op in group]


class _Memo:
    """Caches a reference answer per operation; outputs repeat every cycle."""

    def __init__(self, fn):
        self.fn, self.done, self.value = fn, False, None

    def __call__(self):
        if not self.done:
            self.value, self.done = self.fn(), True
        return self.value


# ---------------------------------------------------------------------------
# chain-kernels


class _SetFn:
    def __init__(self, api, kind: str, m: int, values: list, rng: random.Random):
        self.kind, self.m, self.values = kind, m, values
        self.v = api.SetFunction(api.GroundSet.of_size(m), tuple(values))
        self.f = gen.integrand(rng, m)
        self.subsets = [rng.randrange(1, 1 << m) for _ in range(CHAIN_QUERIES[m])]
        self.dual = oracle.dual(values)
        self.dual_v = api.SetFunction(self.v.ground, tuple(self.dual))
        generic = kind.startswith("generic")
        self.submodular = _Memo(lambda: oracle.pairwise(values)) if generic \
            else (lambda: True)
        self.literal = _Memo(lambda: oracle.literal_chains(values))
        self.literal_dual = _Memo(lambda: oracle.literal_chains(self.dual))


def chain_kernels(api, seed: int):
    rng = random.Random(f"chain-kernels/{seed}")
    fns = []
    kinds = list(gen.SUBMODULAR_KINDS)
    for m, (n_sub, n_gen) in CHAIN_PLAN.items():
        for k in range(n_sub):
            kind = kinds[(k + m) % len(kinds)]
            fns.append(_SetFn(api, kind, m, gen.SUBMODULAR_KINDS[kind](rng, m), rng))
        for k in range(n_gen):
            rational = k % 2 == 1
            fns.append(_SetFn(api, "generic-rational" if rational else "generic-int",
                              m, gen.generic_monotone(rng, m, rational), rng))
    groups = []
    for fn in fns:
        tag = f"m{fn.m} {fn.kind}"
        ops = []
        if fn.m <= 7:
            ops += [_verify_op(api, fn, tag, lower=True),
                    _verify_op(api, fn, tag, lower=False),
                    _choquet_op(api, fn, tag),
                    _choquet_sup_op(api, fn, tag)]
        ops.append(_iterate_op(api, fn, tag))
        for a in fn.subsets:
            ops += [_chain_opt_op(api, fn, tag, a, True),
                    _chain_opt_op(api, fn, tag, a, False)]
        groups.append(ops)
    record = [(fn.kind, fn.m, fn.values, fn.f, fn.subsets) for fn in fns]
    return _interleave(rng, groups), gen.digest(record)


def _verify_op(api, fn: _SetFn, tag: str, lower: bool) -> Op:
    if lower:
        name = "verify_submodular_equivalence"
        call = lambda: api.verify_submodular_equivalence(fn.v)
        values, literal, side = fn.values, fn.literal, "below"
        predicate = lambda: api.is_submodular(fn.v)
    else:
        name = "verify_supermodular_equivalence"
        call = lambda: api.verify_supermodular_equivalence(api.dual_transform(fn.v))
        values, literal, side = fn.dual, fn.literal_dual, "above"
        predicate = lambda: api.is_supermodular(fn.dual_v)

    def check(r):
        truth = fn.submodular()
        return _first_failure(
            _expect(r.booleans == (truth,) * 4,
                    f"booleans {r.booleans}, expected all {truth}"),
            lambda: _expect(predicate()[0] == r.a_holds,
                            "route (a) disagrees with the exchange test"),
            lambda: fn.m <= 6 and _expect(
                r.b_holds == literal()[side]
                and r.c_holds == (literal()["sup" if lower else "inf"] == values),
                "routes (b)/(c) disagree with the literal m! sweep"),
        )
    return Op(f"{name} {tag}", name, call, check)


def _choquet_op(api, fn: _SetFn, tag: str) -> Op:
    f = api.SimpleFunction(fn.v.ground, tuple(fn.f))
    want = oracle.layer_cake(fn.values.__getitem__, fn.f)
    return Op(f"choquet {tag}", "choquet", lambda: api.choquet(fn.v, f),
              lambda r: _expect(r == want, f"choquet {r}, expected {want}"))


def _choquet_sup_op(api, fn: _SetFn, tag: str) -> Op:
    f = api.SimpleFunction(fn.v.ground, tuple(fn.f))
    want = oracle.layer_cake(fn.values.__getitem__, fn.f)

    def check(r):
        if not fn.submodular():
            return _expect(isinstance(r, api.NotSubmodular),
                           f"expected NotSubmodular, got {r!r}")
        value, chain = r
        return _first_failure(
            _expect(value == want, f"chain supremum {value} != choquet {want}"),
            lambda: _expect(oracle.chain_integral(fn.values, chain.order, fn.f) == value,
                            "witness chain does not attain the supremum"))
    return Op(f"choquet_sup_representation {tag}", "choquet_sup_representation",
              lambda: api.choquet_sup_representation(fn.v, f), check)


def _iterate_op(api, fn: _SetFn, tag: str) -> Op:
    verified = {}

    def check(trace):
        key = tuple(tuple(it.values) for it in trace.iterates)
        if key not in verified:
            verified[key] = _check_trace(fn, trace, key)
        return verified[key]
    return Op(f"iterate_to_fixed_point {tag}", "iterate_to_fixed_point",
              lambda: api.iterate_to_fixed_point(fn.v), check)


def _check_trace(fn: _SetFn, trace, iterates) -> str | None:
    idx = trace.fixed_point_index
    return _first_failure(
        _expect(idx == len(iterates) - 1, "fixed point index is not the last iterate"),
        _expect(list(iterates[0]) == fn.values, "first iterate is not the input"),
        _expect(trace.submodular_flags[-1], "fixed point not flagged submodular"),
        _expect(not fn.submodular() or idx == 0, "submodular input is not a fixed point"),
        _expect(all(a <= b for x, y in zip(iterates, iterates[1:]) for a, b in zip(x, y)),
                "iterates decrease somewhere"),
        lambda: _expect(oracle.pairwise(list(iterates[-1])),
                        "fixed point fails the pairwise submodularity test"),
        lambda: fn.m <= 6 and _expect(
            all(oracle.literal_chains(list(x))["sup"] == list(y)
                for x, y in zip(iterates, iterates[1:])),
            "a step differs from the literal m! sweep"),
    )


def _chain_opt_op(api, fn: _SetFn, tag: str, a: int, maximize: bool) -> Op:
    name = "sup_over_chains" if maximize else "inf_over_chains"

    def check(r):
        value, chain = r
        va = fn.values[a]
        return _first_failure(
            _expect(oracle.chain_mass(fn.values, chain.order, a) == value,
                    "witness chain does not attain the value"),
            _expect(value >= va if maximize else value <= va,
                    f"{name} {value} on the wrong side of v(A) = {va}"),
            _expect(not (maximize and fn.submodular()) or value == va,
                    "sup over chains differs from v(A) on submodular v"),
            lambda: fn.m <= 6 and _expect(
                value == fn.literal()["sup" if maximize else "inf"][a],
                "differs from the literal m! sweep"),
        )
    return Op(f"{name} {tag} A={a}", name, lambda: getattr(api, name)(fn.v, a), check)


def chain_warmup(api) -> None:
    g = api.GroundSet.of_size(4)
    v = api.SetFunction(g, tuple(gen.subset_sums([Fraction(1)] * 4)))
    f = api.SimpleFunction(g, (Fraction(1),) * 4)
    api.verify_submodular_equivalence(v)
    api.verify_supermodular_equivalence(api.dual_transform(v))
    api.iterate_to_fixed_point(v)
    api.choquet(v, f)
    api.choquet_sup_representation(v, f)
    api.sup_over_chains(v, 3)
    api.inf_over_chains(v, 3)


# ---------------------------------------------------------------------------
# law-invariant


def law_invariant(api, seed: int):
    rng = random.Random(f"law-invariant/{seed}")
    groups, record = [], []

    def space(nu, density):
        g = api.GroundSet.of_size(len(nu))
        return api.WeightedSpace(g, api.DiscreteMeasure(g, tuple(nu)), tuple(density))

    for uniform, plan in ((True, UNIFORM_PLAN), (False, GENERAL_PLAN)):
        for m, count in plan.items():
            for _ in range(count):
                nu, density = (gen.uniform_space if uniform else gen.general_space)(rng, m)
                fs = [gen.integrand(rng, m) for _ in range(SPECTRAL_INTEGRANDS)]
                fc = gen.comonotone_partner(rng, density) if uniform else None
                record.append((m, nu, density, fs, fc))
                groups.append(_space_ops(api, space(nu, density), nu, density, fs, fc,
                                         f"m{m} {'uniform' if uniform else 'general'}"))
    for m in VMU_SIZES:
        nu, density = gen.distinct_space(rng, m)
        record.append((m, nu, density))
        groups.append(_vmu_ops(api, space(nu, density), nu, density, f"m{m}"))
    return _interleave(rng, groups), gen.digest(record)


def _space_ops(api, w, nu, density, fs, fc, tag: str) -> list[Op]:
    law = oracle.law_value(nu, density)
    uniform = len(set(nu)) == 1

    def spectral(f):
        want = oracle.layer_cake(law, f)
        fs_ = api.SimpleFunction(w.ground, tuple(f))
        return Op(f"spectral_decomposition_check {tag}", "spectral_decomposition_check",
                  lambda: api.spectral_decomposition_check(w, fs_),
                  lambda r: _expect(r.agrees and r.direct == want,
                                    f"spectral direct {r.direct} / components "
                                    f"{r.by_components}, expected {want}"))
    ops = [spectral(f) for f in fs]

    f = fs[0]
    fs0 = api.SimpleFunction(w.ground, tuple(f))
    want = oracle.layer_cake(law, f)
    paired = oracle.paired(nu, density, f)

    def check_domination(r):
        sup = r.rearrangement_supremum
        return _first_failure(
            _expect(r.choquet_value == want and r.paired_integral == paired,
                    "choquet or paired integral wrong"),
            _expect(not uniform or sup == oracle.sorted_pairing(nu, density, f),
                    "rearrangement supremum is not the sorted pairing"),
            _expect(oracle.same_distribution(nu, density, r.best_density)
                    and oracle.paired(nu, r.best_density, f) == sup
                    and paired <= sup <= want,
                    "best density is not an equal-distribution rearrangement "
                    "attaining the supremum"),
        )

    ops += [
        Op(f"choquet_product_formula {tag}", "choquet_product_formula",
           lambda: api.choquet_product_formula(w, fs0),
           lambda r: _expect(r == want, f"product formula {r}, expected {want}")),
        Op(f"domination_report {tag}", "domination_report",
           lambda: api.domination_report(w, fs0), check_domination),
    ]
    if fc is not None and w.ground.size <= COMONOTONE_MAX_M:
        fcs = api.SimpleFunction(w.ground, tuple(fc))
        want_c = oracle.layer_cake(law, fc)
        ok = want_c == oracle.paired(nu, density, fc)
        ops.append(Op(f"comonotone_attainment {tag}", "comonotone_attainment",
                      lambda: api.comonotone_attainment(w, fcs),
                      lambda r: _expect(ok and r == (want_c,) * 3,
                                        f"attainment {r}, expected {want_c} three times")))
    return ops


def _vmu_ops(api, w, nu, density, tag: str) -> list[Op]:
    state = {}
    law = oracle.law_value(nu, density)
    want = _Memo(lambda: [law(s) for s in range(1 << len(nu))])
    want_dual = _Memo(lambda: oracle.dual(want()))

    def materialize():
        state["v"] = api.v_mu_set_function(w)
        return state["v"]

    def dual():
        state["w"] = api.dual_transform(state["v"])
        return state["w"]

    def holds(r):
        return _expect(r == (True, None), f"expected (True, None), got {r}")

    return [
        Op(f"v_mu_set_function {tag}", "v_mu_set_function", materialize,
           lambda r: _expect(list(r.values) == want(), "law-invariant values wrong")),
        Op(f"is_monotone {tag}", "is_monotone", lambda: api.is_monotone(state["v"]), holds),
        Op(f"is_submodular {tag}", "is_submodular", lambda: api.is_submodular(state["v"]), holds),
        Op(f"dual_transform {tag}", "dual_transform", dual,
           lambda r: _expect(list(r.values) == want_dual(), "dual values wrong")),
        Op(f"is_supermodular {tag}", "is_supermodular",
           lambda: api.is_supermodular(state["w"]), holds),
    ]


def law_warmup(api) -> None:
    g = api.GroundSet.of_size(4)
    w = api.WeightedSpace.counting(g, tuple(Fraction(x) for x in (1, 2, 3, 4)))
    f = api.SimpleFunction(g, tuple(Fraction(x) for x in (0, 1, 2, 3)))
    api.spectral_decomposition_check(w, f)
    api.choquet_product_formula(w, f)
    api.domination_report(w, f)
    api.comonotone_attainment(w, f)
    v = api.v_mu_set_function(w)
    api.is_monotone(v)
    api.is_submodular(v)
    api.is_supermodular(api.dual_transform(v))


# ---------------------------------------------------------------------------
# cli-docs

@dataclass(frozen=True)
class Defect:
    """How a known defect shows: a failure of its operation is excused only
    when the child's exit code, traceback and output match this signature."""

    what: str
    code: int
    traceback: bool
    output: str  # a fragment of stdout or stderr

    def matches(self, result) -> bool:
        return (isinstance(result, Child) and result.code == self.code
                and ("Traceback" in result.stderr) == self.traceback
                and self.output in result.stdout + result.stderr)


# Operations that fail at this version of the program, by defect.
KNOWN_DEFECTS = {
    "iterate-nonmonotone": Defect(
        "iterate on a non-monotone document: traceback, exit 1",
        1, True, "ValueError: recursion requires a monotone start"),
    "huge-integer": Defect(
        "a 5000-digit value: traceback, exit 1",
        1, True, "ValueError: Exceeds the limit (4300 digits)"),
    "non-ascii-digit": Defect(
        "a non-ASCII digit is accepted as a number: exit 0",
        0, False, "submodular: yes"),
    "check-m12": Defect(
        "check at m = 12 is refused with exit 2",
        2, False, "error: chain sweeps support at most 9 elements, got 12"),
}

MALFORMED = {
    "bad-json": '{"ground_set": ["1"], "values": {',
    "missing-values": {"ground_set": ["1", "2"]},
    "zero-denominator": {"ground_set": ["1"], "values": {"": "0", "1": "1/0"}},
    "missing-subset": {"ground_set": ["1", "2"], "values": {"": "0", "1": "1", "2": "1"}},
    "unknown-label": {"ground_set": ["1"], "values": {"": "0", "1": "1", "9": "1"}},
    "nonzero-empty": {"ground_set": ["1"], "values": {"": "1", "1": "1"}},
    "number-value": {"ground_set": ["1"], "values": {"": "0", "1": 1}},
    "decimal-value": {"ground_set": ["1"], "values": {"": "0", "1": "1.5"}},
}


def _json(child: Child):
    return json.loads(child.stdout)


def _no_traceback(child: Child) -> str | None:
    return _expect("Traceback" not in child.stderr, "traceback on stderr")


class CliDocs:
    """Documents written at set-up, each command run as a child process."""

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.docs = os.path.join(ctx.work, "docs")
        shutil.rmtree(self.docs, ignore_errors=True)
        os.makedirs(self.docs)
        self.rng = random.Random(f"cli-docs/{seed}")
        self.record = []
        self.groups: list[list[Op]] = []
        self._small()
        self._large()
        self._spectral()
        self._contract()
        self.digest = gen.digest(self.record)
        self.ops = _interleave(self.rng, self.groups)

    def _write(self, name: str, doc) -> str:
        path = os.path.join(self.docs, name)
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.record.append((name, text))
        return path

    def _single(self, op: Op) -> None:
        self.groups.append([op])

    def _op(self, label: str, args: list[str], check, defect=None) -> Op:
        def full_check(child: Child):
            return _first_failure(lambda: _no_traceback(child), lambda: check(child))
        return Op(label, f"cli {args[0]}", lambda: self.ctx.cli(args), full_check, defect)

    def _small(self) -> None:
        kinds = list(gen.SUBMODULAR_KINDS)
        for m, (n_sub, n_gen) in CLI_SMALL_PLAN.items():
            for k in range(n_sub + n_gen):
                if k < n_sub:
                    kind = kinds[(k + m) % len(kinds)]
                    values = self._positive(lambda: gen.SUBMODULAR_KINDS[kind](self.rng, m))
                    truth = True
                else:
                    kind = "generic"
                    values = gen.generic_monotone(self.rng, m, rational=k % 2 == 0)
                    truth = oracle.pairwise(values)
                path = self._write(f"small-m{m}-{k}.json", gen.set_function_doc(values))
                f = gen.integrand(self.rng, m, -4, 6)
                tag = f"m{m} {kind}"
                self.groups.append([
                    self._op(f"check {tag}", ["check", path, "--format", "json"],
                             self._check_report(truth)),
                    self._op(f"represent {tag}", ["represent", path, "--format", "json"],
                             self._represent_report(truth)),
                    self._op(f"iterate {tag}", ["iterate", path, "--format", "json"],
                             self._iterate_report(values, truth)),
                    self._op(f"choquet --sup {tag}",
                             ["choquet", path, f"--f={gen.f_arg(f)}", "--sup", "--risk",
                              "--witness", "--format", "json"],
                             self._choquet_report(values, f, truth)),
                ])

    def _positive(self, make):
        while True:
            values = make()
            if values[-1] > 0:
                return values

    @staticmethod
    def _check_report(truth: bool):
        def check(c: Child):
            if c.code != (0 if truth else 1):
                return f"exit {c.code}"
            r = _json(c)
            return _expect(r["monotone"] and r["submodular"] == truth
                           and r["equivalence"] == dict.fromkeys("abcd", truth),
                           f"report {r}")
        return check

    @staticmethod
    def _represent_report(truth: bool):
        def check(c: Child):
            if c.code != (0 if truth else 1):
                return f"exit {c.code}"
            r = _json(c)
            return _expect(r["booleans"] == dict.fromkeys("abcd", truth)
                           and r["consistent"], f"report {r}")
        return check

    @staticmethod
    def _iterate_report(values, truth: bool):
        m = (len(values) - 1).bit_length()
        keys = [gen.subset_key(s, m) for s in range(1 << m)]
        verified = {}

        def check(c: Child):
            if c.code != 0:
                return f"exit {c.code}"
            r = _json(c)
            its = tuple(tuple(Fraction(it[k]) for k in keys) for it in r["iterates"])
            if its not in verified:
                idx = r["fixed_point_index"]
                verified[its] = _first_failure(
                    _expect(idx == len(its) - 1 and r["submodular_flags"][-1],
                            "no submodular fixed point at the end"),
                    _expect(list(its[0]) == values, "first iterate is not the input"),
                    _expect(not truth or idx == 0, "submodular input is not a fixed point"),
                    lambda: _expect(oracle.pairwise(list(its[-1])),
                                    "fixed point fails the pairwise test"),
                    lambda: m <= 6 and _expect(
                        all(oracle.literal_chains(list(x))["sup"] == list(y)
                            for x, y in zip(its, its[1:])),
                        "a step differs from the literal m! sweep"))
            return verified[its]
        return check

    @staticmethod
    def _choquet_report(values, f, truth: bool):
        want = oracle.layer_cake(values.__getitem__, f)
        risk = oracle.layer_cake(values.__getitem__, [-x for x in f]) / values[-1]

        def check(c: Child):
            if not truth:
                return _expect(c.code == 1 and "chain supremum refused" in c.stderr,
                               f"exit {c.code}, expected a refusal with exit 1")
            if c.code != 0:
                return f"exit {c.code}"
            r = _json(c)
            order = [int(x) - 1 for x in r["witness_chain"]]
            return _expect(
                Fraction(r["choquet"]) == want == Fraction(r["chain_supremum"])
                and Fraction(r["risk"]) == risk
                and oracle.chain_integral(values, order, f) == want,
                f"payload {r}, expected integral {want} and risk {risk}")
        return check

    def _large(self) -> None:
        for m in CLI_LARGE_SIZES:
            values = self._positive(lambda: gen.capped_sum(self.rng, m))
            path = self._write(f"large-m{m}.json", gen.set_function_doc(values))
            f = gen.integrand(self.rng, m)
            want = oracle.layer_cake(values.__getitem__, f)
            risk = oracle.layer_cake(values.__getitem__, [-x for x in f]) / values[-1]
            self._single(self._op(
                f"choquet --risk m{m}",
                ["choquet", path, "--f", gen.f_arg(f), "--risk", "--format", "json"],
                lambda c, want=want, risk=risk: _expect(
                    c.code == 0 and Fraction(_json(c)["choquet"]) == want
                    and Fraction(_json(c)["risk"]) == risk,
                    f"exit {c.code}, expected integral {want} and risk {risk}")))
            out = os.path.join(self.docs, f"dual-m{m}.out.json")
            expected = gen.set_function_doc(oracle.dual(values))
            self._single(self._op(f"dual -o m{m}", ["dual", path, "-o", out],
                                  lambda c, out=out, expected=expected:
                                  self._dual_report(c, out, expected)))
        m = CLI_CHECK_LARGE
        values = gen.capped_sum(self.rng, m)
        path = self._write(f"large-m{m}.json", gen.set_function_doc(values))

        def check(c: Child):
            if c.code != 0:
                return f"exit {c.code}"
            r = _json(c)
            return _expect(r["monotone"] and r["submodular"], f"report {r}")
        self._single(self._op(f"check m{m}", ["check", path, "--format", "json"],
                              check, defect="check-m12"))

    @staticmethod
    def _dual_report(c: Child, out: str, expected: dict):
        if c.code != 0:
            return f"exit {c.code}"
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(out)
        return _expect(doc == expected, "dual document differs from v(full) - v(complement)")

    def _spectral(self) -> None:
        for m in CLI_SPECTRAL_SIZES:
            nu, density = gen.uniform_space(self.rng, m)
            f = gen.integrand(self.rng, m)
            path = self._write(f"space-m{m}.json", gen.space_doc(nu, density))
            want = oracle.layer_cake(oracle.law_value(nu, density), f)
            paired = oracle.paired(nu, density, f)
            sup = oracle.sorted_pairing(nu, density, f)

            def check(c: Child, want=want, paired=paired, sup=sup):
                if c.code != 0:
                    return f"exit {c.code}"
                r = _json(c)
                routes = {Fraction(r[k]) for k in
                          ("integral", "integral_product_route", "integral_spectral_route")}
                return _expect(routes == {want} and Fraction(r["paired_integral"]) == paired
                               and Fraction(r["rearrangement_supremum"]) == sup,
                               f"payload {r}")
            self._single(self._op(f"spectral m{m}",
                                  ["spectral", path, "--f", gen.f_arg(f), "--format", "json"],
                                  check))

    def _contract(self) -> None:
        self._single(self._op(
            "repro-table", ["repro-table", "--format", "json"],
            lambda c: _expect(c.code == 0 and _json(c)["mismatches"] == [],
                              f"exit {c.code}")))
        self._single(self._op(
            "repro-table --self-test", ["repro-table", "--self-test", "--format", "json"],
            lambda c: _expect(c.code == 1 and len(_json(c)["mismatches"]) == 1,
                              f"exit {c.code}")))

        def input_error(c: Child):
            return _expect(c.code == 2, f"exit {c.code}, expected 2")
        for name, doc in MALFORMED.items():
            path = self._write(f"malformed-{name}.json", doc)
            self._single(self._op(f"check malformed {name}", ["check", path], input_error))
        nonmono = self._write("defect-nonmonotone.json", {
            "ground_set": ["1", "2"], "values": {"": "0", "1": "2", "2": "1", "1,2": "1"}})
        huge = self._write("defect-huge.json", {
            "ground_set": ["1"], "values": {"": "0", "1": "7" * 5000}})
        arabic = self._write("defect-digit.json", {
            "ground_set": ["1"], "values": {"": "0", "1": "١"}})
        self.groups += [[op] for op in (
            self._op("iterate non-monotone", ["iterate", nonmono], input_error,
                     "iterate-nonmonotone"),
            self._op("check 5000-digit value", ["check", huge], input_error, "huge-integer"),
            self._op("check non-ASCII digit", ["check", arabic], input_error,
                     "non-ascii-digit"),
        )]

"""The benchmark's four workloads: their inputs, timed calls and reference checks.

Each workload makes the calls the CLI makes for it: `verify` over an
enumerated or sampled tree stream, or `stats --format json` on large family
members.  Library functions are looked up on their module at call time, so
the tracer's wrappers take effect.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from subtree_density import dp, enumeration, families, tree, verify

import references


@dataclass
class Result:
    """Outcome of one pass over a workload's timed region."""

    wall_s: float
    items_ms: List[float]
    attempted: int
    problems: List[str]
    digests: List[str]  # sha256 of each output body; bodies are dropped so they add no RSS
    failed: int = 0
    violations: int = 0
    equality_cases: int = 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _gaps_ms(marks: List[float]) -> List[float]:
    return [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]


@dataclass(frozen=True)
class VerifyWorkload:
    """`subtree-density verify` over an enumerated (`enum`) or sampled stream."""

    source: str
    n: Tuple[int, int]
    checks: Tuple[str, ...]
    series_reduced: bool = False
    count: int = 200  # the CLI default; only `sample` uses it
    expected_violations: Dict[str, list] = field(default_factory=dict)
    expected_equality_forms: Dict[str, list] = field(default_factory=dict)

    def inputs(self, seed: int) -> list:
        """Per-tree arguments: (n, series_reduced) per size, or (n, seed) per sample."""
        lo, hi = self.n
        if self.source == "enum":
            return [(n, self.series_reduced) for n in range(lo, hi + 1)]
        return [(lo, seed + i) for i in range(self.count)]

    def trees(self, inputs: list):
        if self.source == "enum":
            for n, series_reduced in inputs:
                yield from enumeration.enumerate_trees(n, series_reduced=series_reduced)
        else:
            for n, seed in inputs:
                yield enumeration.sample_series_reduced(n, seed)

    def config(self, seed: int) -> dict:
        """The report config `subtree-density verify` writes for these arguments."""
        lo, hi = self.n
        return {
            "source": self.source,
            "checks": list(self.checks),
            "n": f"{lo}..{hi}" if lo != hi else str(lo),
            "series_reduced": self.series_reduced,
            "seed": seed if self.source == "sample" else 0,
            "count": self.count,
        }

    def expected_items(self) -> int:
        lo, hi = self.n
        if self.source == "sample":
            return self.count
        census = references.SERIES_REDUCED if self.series_reduced else references.FREE_TREES
        return sum(census[n] for n in range(lo, hi + 1))

    def run(self, inputs: list, seed: int, digest: Optional[str]) -> Result:
        marks: List[float] = []
        sizes: List[int] = []
        sampled = []

        def stream():
            for t in self.trees(inputs):
                marks.append(time.perf_counter())
                sizes.append(t.n)
                if self.source == "sample":
                    sampled.append(t)
                yield t

        problems: List[str] = []
        start = time.perf_counter()
        try:
            report = verify.run_checks(stream(), self.checks, config=self.config(seed))
        except Exception as exc:  # an item that raised fails the run
            report = None
            problems.append(f"run_checks raised {exc!r}")
        end = time.perf_counter()
        result = Result(wall_s=end - start, items_ms=_gaps_ms(marks + [end]),
                        attempted=self.expected_items(), problems=problems, digests=[])
        if report is None:
            result.failed = result.attempted
            return result
        body = json.loads(report.to_json())["report"]
        text = json.dumps(body, sort_keys=True, indent=2)
        result.digests.append(_digest(text))
        result.violations = sum(len(c["violations"]) for c in body["checks"])
        result.equality_cases = sum(len(c["equality_cases"]) for c in body["checks"])
        problems.extend(self._census_problems(sizes, sampled))
        problems.extend(self._witness_problems(body))
        if digest is not None and result.digests[0] != digest:
            problems.append(f"report digest {result.digests[0]} != pinned {digest}")
        # the report is one output over the whole stream, so a mismatch fails every item
        if problems:
            result.failed = result.attempted
        return result

    def _census_problems(self, sizes: List[int], sampled: list) -> List[str]:
        lo, hi = self.n
        if self.source == "sample":
            problems = []
            if len(sampled) != self.count:
                problems.append(f"sampled {len(sampled)} trees, expected {self.count}")
            for t in sampled:
                if t.n < lo or any(len(a) == 2 for a in t.adj):
                    problems.append(f"sampled tree n={t.n} is not series-reduced with n >= {lo}")
            return problems
        census = references.SERIES_REDUCED if self.series_reduced else references.FREE_TREES
        got = Counter(sizes)
        return [f"n={n}: {got.get(n, 0)} trees, expected {census[n]}"
                for n in range(lo, hi + 1) if got.get(n, 0) != census[n]] + \
               [f"unexpected tree size {n}" for n in got if not lo <= n <= hi]

    def _witness_problems(self, body: dict) -> List[str]:
        problems = []
        for outcome in body["checks"]:
            check = outcome["check"]
            expected = self.expected_violations.get(check, [])
            got = [{k: w.get(k) for k in ("n", "canonical_form", "density")}
                   for w in outcome["violations"]]
            if got != expected:
                problems.append(f"{check}: violations {outcome['violations']} != {expected}")
            if check in self.expected_equality_forms:
                forms = [w["canonical_form"] for w in outcome["equality_cases"]]
                if forms != self.expected_equality_forms[check]:
                    problems.append(f"{check}: equality cases {forms} != "
                                    f"{self.expected_equality_forms[check]}")
        return problems

    def check_times(self, inputs: list, seed: int) -> Dict[str, float]:
        """Seconds of `run_checks` with each check id alone over the same trees."""
        trees = list(self.trees(inputs))
        out = {}
        for check in self.checks:
            start = time.perf_counter()
            verify.run_checks(trees, [check], config=self.config(seed))
            out[check] = time.perf_counter() - start
        return out


@dataclass(frozen=True)
class StatsWorkload:
    """`subtree-density stats --format json` on large family members."""

    members: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]

    def inputs(self, seed: int) -> list:
        """(family name, params, tree file text) per member, built untimed."""
        out = []
        for family, params in self.members:
            spec = families.FamilySpec(family, dict(params))
            out.append((family, dict(params), tree.serialize(families.make_family(spec))))
        return out

    def expected_items(self) -> int:
        return len(self.members)

    def run(self, inputs: list, seed: int, digests: Optional[Dict[str, str]]) -> Result:
        result = Result(wall_s=0.0, items_ms=[], attempted=self.expected_items(),
                        problems=[], digests=[])
        for family, params, text in inputs:
            start = time.perf_counter()
            try:
                stats = dp.global_stats(tree.parse_tree(text))
                doc = stats.to_json_dict()
            except Exception as exc:  # an item that raised fails
                result.problems.append(f"{family}: raised {exc!r}")
                result.wall_s += time.perf_counter() - start
                result.failed += 1
                continue
            elapsed = time.perf_counter() - start
            result.wall_s += elapsed
            result.items_ms.append(elapsed * 1e3)
            result.digests.append(_digest(json.dumps(doc, sort_keys=True, indent=2)))
            problems = self._member_problems(family, params, stats, result.digests[-1], digests)
            result.problems.extend(problems)
            result.failed += bool(problems)
            del stats, doc  # the CLI holds one member at a time; so does the benchmark
        return result

    def _member_problems(self, family, params, stats, digest, digests) -> List[str]:
        problems = []
        closed = None
        if family == "path":
            closed = references.path_totals(params["n"])
        elif family == "star":
            closed = references.star_totals(params["m"])
        if closed is not None and (stats.subtree_count, stats.order_sum) != closed:
            problems.append(f"{family}: (count, order sum) differs from the closed form")
        if digests is not None and digest != digests[family]:
            problems.append(f"{family}: stats digest {digest} != pinned {digests[family]}")
        return problems

    def check_times(self, inputs: list, seed: int) -> Dict[str, float]:
        return {}


# Full-size workloads (benchmark runs) and tiny ones of the same layer mix (smoke test).
# Sizes are chosen so one repetition takes 1.3-3.5 s on a 2-core box: many
# repetitions per run give a steadier median than a few long ones.
_SIZES = {
    "full": {"enum-sr": (4, 13), "enum-all": (1, 13), "sample": (300, 12),
             "family": ((("n", 60000),), (("m", 8000),), (("s", 2000), ("p", 5)),
                        (("m", 50), ("k", 1500)), (("k", 40), ("r", 40)))},
    "tiny": {"enum-sr": (4, 9), "enum-all": (1, 8), "sample": (30, 3),
             "family": ((("n", 300),), (("m", 60),), (("s", 20), ("p", 5)),
                        (("m", 5), ("k", 15)), (("k", 4), ("r", 4)))},
}

FAMILY_NAMES = ("path", "star", "star_chain", "broom", "starfish")


def workloads(scale: str = "full") -> dict:
    sizes = _SIZES[scale]
    sample_n, sample_count = sizes["sample"]
    return {
        "enum-sr": VerifyWorkload(
            "enum", sizes["enum-sr"],
            ("C2", "C3", "C5", "C7", "C8", "C10", "C11", "C12"), series_reduced=True,
            expected_violations={"C12": references.C12_EXPECTED_VIOLATIONS}),
        "enum-all": VerifyWorkload(
            "enum", sizes["enum-all"], ("C1", "C4", "C8"),
            expected_equality_forms={"C4": references.C4_EQUALITY_FORMS}),
        "sample-rooted": VerifyWorkload(
            "sample", (sample_n, sample_n), ("C7", "C9", "C10", "C11"),
            count=sample_count),
        "family-stats": StatsWorkload(tuple(zip(FAMILY_NAMES, sizes["family"]))),
    }


def pinned_digest(name: str, seed: int):
    """The digest(s) recorded for a full-size run, or None where none is pinned."""
    if name == "family-stats":
        return references.STATS_DIGESTS
    if name == "sample-rooted" and seed != references.DEFAULT_SEED:
        return None
    return references.REPORT_DIGESTS[name]

"""Output checks of the benchmark, run outside the timed region.

Each function returns a list of problems; an empty list means the engine's
outputs are correct.  Verdicts are held against the documents (and, for the
two ``check`` entries, against recorded.json), sampled values against the
sympy oracle.
"""

from __future__ import annotations

import oracle
import workloads


def verdict_problems(job, result, docs, recorded):
    """The timed region's own outputs: verdicts, point counts, exit code."""
    if job["kind"] == "transform":
        return _transform_problems(job, result)
    problems = []
    reports = result["reports"]
    names = [r["name"] for r in reports]
    if sorted(names) != sorted(job["entries"]):
        problems.append(f"entries verified {sorted(names)} differ from {sorted(job['entries'])}")
    for r in reports:
        doc = docs[r["name"]]
        want = "equal" if job["kind"] == "poly" else workloads.expected_verdict(doc, recorded)
        if r["actual"] != want:
            problems.append(f"{r['name']}: verdict {r['actual']}, expected {want}")
        elif r["name"] not in recorded and not r["matched"]:
            problems.append(f"{r['name']}: verdict {r['actual']} but not matched")
    if job["kind"] == "corpus" and result["exit"] != 0:
        problems.append(f"corpus run exit code {result['exit']}")
    return problems


def _transform_problems(job, result):
    problems = []
    label = f"{job['seed']} {'+'.join(job['ops'])}"
    outputs = result["outputs"]
    if len(outputs) != workloads.outputs_per_job(job):
        problems.append(f"{label}: {len(outputs)} outputs")
    points = len(job["n"]) * len(job["grid"])
    for out in outputs:
        if out["points"] != points:
            problems.append(f"{out['provenance']}: {out['points']} points verified, expected {points}")
        if out["failures"] or out["undefined"]:
            problems.append(f"{out['provenance']}: {out['failures']} unequal and "
                            f"{out['undefined']} undefined points")
    return problems


def oracle_problems(job, samples, docs, recorded):
    """The engine's values at the sampled points against the oracle's."""
    problems = []
    for s in samples.get("closed", ()):
        problems += _closed_problems(s, docs[s["entry"]], recorded)
    for s in samples.get("poly", ()):
        doc = docs[s["entry"]]
        for side in ("lhs", "rhs"):
            want = oracle.poly_side(doc[side], s["n"])
            got = [oracle.engine_value(c) for c in s[side]]
            if not oracle.equal_lists(want, got):
                problems.append(f"{s['entry']} n={s['n']}: {side} coefficients differ from the oracle")
    for s in samples.get("check", ()):
        first = recorded[s["entry"]]["first_unequal_n"]
        for n, equal in s["per_n"]:
            if equal != (n < first):
                problems.append(f"{s['entry']}: n={n} {'equal' if equal else 'unequal'}, "
                                f"recorded unequal from n = {first} on")
        if s["undefined"]:
            problems.append(f"{s['entry']}: {s['undefined']} undefined points")
    for s in samples.get("transform", ()):
        doc = docs[job["seed"]]
        want = oracle.transform_values(job, doc, s["n"], s["params"])
        for value, got in zip(want, s["values"]):
            for side in ("lhs", "rhs"):
                if not oracle.same(value, oracle.engine_value(got[side])):
                    problems.append(f"{job['seed']} {'+'.join(job['ops'])} n={s['n']} "
                                    f"{s['params']}: {side} {got[side]} differs from the oracle")
    return problems


def _closed_problems(s, doc, recorded):
    name, n, params = s["entry"], s["n"], s["params"]
    at = f"{name} at n={n} {params}"
    lhs = oracle.closed_side(doc["lhs"], n, params)
    rhs = oracle.closed_side(doc["rhs"], n, params)
    values = {"lhs": lhs, "rhs": rhs}
    problems = []
    for side, want in values.items():
        if not oracle.same(want, oracle.engine_value(s[side])):
            problems.append(f"{at}: engine {side} {s[side]}, oracle {want}")
    verdict = workloads.expected_verdict(doc, recorded)
    if oracle.same(lhs, rhs) != (verdict == "equal"):
        problems.append(f"{at}: oracle sides {lhs} and {rhs} contradict verdict {verdict}")
    stored = doc.get("witness") or recorded.get(name, {})
    for side in ("lhs", "rhs"):
        if side in stored and not oracle.same(oracle.engine_value(stored[side]), values[side]):
            problems.append(f"{at}: oracle {side} differs from the stored value {stored[side]}")
    return problems

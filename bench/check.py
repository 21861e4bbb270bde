"""Output checker: does one command's report match its construction?"""

from __future__ import annotations

import json

# the five witness checks every balance report must carry, all true
WITNESS_CHECKS = ("kind_kleinschmidt", "squarefree", "block_degree",
                  "divisibility_closure", "f_matches_h")


def _padded(seq, length):
    return list(seq) + [0] * (length - len(seq))


def problems(expect: dict, code, stdout: str) -> list[str]:
    """Why the command failed, or an empty list when it passed.

    Every command in the workloads is expected to exit 0 and print one
    canonical JSON line.
    """
    if code != 0:
        return [f"exit code {code!r}, expected 0"]
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return ["stdout is not a JSON report"]
    kind = expect["kind"]
    out = []
    if kind == "cm":
        if results.get("cm") is not expect["cm"]:
            out.append(f"verdict cm={results.get('cm')!r}, expected {expect['cm']}")
        if results.get("violation") != expect["violation"]:
            out.append(f"certificate {results.get('violation')!r}, "
                       f"expected {expect['violation']!r}")
    elif kind == "balance":
        checks = results.get("checks", {})
        failed = sorted(k for k in set(WITNESS_CHECKS) | set(checks)
                        if checks.get(k) is not True)
        if failed:
            out.append(f"checks not true: {failed}")
        h = expect["h"]
        width = max(len(h), len(results.get("F", [])))
        if _padded(results.get("F", []), width) != _padded(h, width):
            out.append(f"F={results.get('F')!r} is not h={h!r}")
    elif kind == "classify":
        comps = results.get("components", [])
        if len(comps) != 1:
            return [f"{len(comps)} components, expected 1"]
        got = comps[0]
        if got.get("kind") != expect["verdict"]:
            out.append(f"kind {got.get('kind')!r}, expected {expect['verdict']!r}")
        if got.get("name") != expect.get("name"):
            out.append(f"name {got.get('name')!r}, expected {expect.get('name')!r}")
        if expect["verdict"] == "PG":
            dec = got.get("decomposition") or {}
            counts = (len(dec.get("basic_cycles", [])), len(dec.get("pendant_edges", [])))
            if counts != (expect["cycles"], expect["pendants"]):
                out.append(f"decomposition (cycles, pendants)={counts}, expected "
                           f"{(expect['cycles'], expect['pendants'])}")
    elif kind == "embed":
        cert = results.get("certificate", {})
        if cert.get("dim_matches") is not True:
            out.append("embed certificate has dim_matches false")
        if cert.get("expected_tail") != expect["tail"]:
            out.append(f"tail {cert.get('expected_tail')!r}, expected {expect['tail']}")
    else:
        out.append(f"unknown expectation kind {kind!r}")
    return out

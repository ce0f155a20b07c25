#!/usr/bin/env python3
"""Hostile-input smoke test for `banger serve` over stdio.

Pipes six request lines into one server: a line past the 64 MiB
request-line limit, a trial whose formula recursion nests ~100
expression levels per frame (it once overflowed a tree-walker's stack;
the VM answers `r = 24480`), an upload of a 200k-level design
hierarchy, a trial whose formula recursion nests builtin calls too deep
for the VM, a `check` of one routine with 40k division-by-zero lines,
and a ping. The first, third and fourth must each get a positioned
`limit` error envelope; the second must answer `r = 24480`. The check
must report all 40k divisions within 30 s (its cost once grew with the
square of the reports). The ping must be answered `pong`, and the
server must exit 0.

Usage: python3 tests/serve_hostile_smoke.py path/to/banger
"""
import json
import subprocess
import sys
import time

LINE_LIMIT = 64 << 20


def deep_formula_design(wrap_open, wrap_close, levels):
    # 255 formula frames, each wrapping the recursive call `levels` deep.
    body = "f(n - 1)"
    for _ in range(levels):
        body = f"{wrap_open}{body}{wrap_close}"
    return ("design deep_formula\n"
            "graph deep_formula\n"
            "  store r bytes=8\n"
            "  task deep work=1 out=r\n"
            "  pits {\n"
            f"    formula f(n) := when(n <= 0, 0, {body})\n"
            "    r := f(255)\n"
            "  }\n"
            "  arc deep -> r var=r bytes=8\n")


def deep_expression_design():
    # ~100 expression levels per frame; the VM answers r = 24480.
    return deep_formula_design("1 + (", ")", 96)


def vm_recursion_design():
    # 95 nested builtin calls per frame: past the VM's call-depth bound.
    return deep_formula_design("abs(", ")", 95)


def division_design(lines=40_000):
    # One BAN104 per line, plus BAN009 for the unbound input `a`.
    body = "    x := a / 0\n" * lines
    return ("design divs\n"
            "graph divs\n"
            "  store in_a bytes=8\n"
            "  store out_x bytes=8\n"
            "  task t work=1 in=a out=x\n"
            "  pits {\n" + body + "  }\n"
            "  arc in_a -> t var=a bytes=8\n"
            "  arc t -> out_x var=x bytes=8\n")


def deep_hierarchy_design(levels=200_000):
    parts = ["design chain\n"]
    for i in range(levels - 1):
        parts.append(f"graph g{i}\n  super s graph=g{i + 1}\n")
    parts.append(f"graph g{levels - 1}\n  task t work=1\n")
    return "".join(parts)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    lines = [
        b"x" * (LINE_LIMIT + 1),
        json.dumps({"id": "deep_expr", "op": "trial",
                    "design": deep_expression_design()}).encode(),
        json.dumps({"id": "deep", "op": "upload", "name": "deep",
                    "kind": "design",
                    "text": deep_hierarchy_design()}).encode(),
        json.dumps({"id": "vm", "op": "trial",
                    "design": vm_recursion_design()}).encode(),
        json.dumps({"id": "check", "op": "check",
                    "design": division_design()}).encode(),
        json.dumps({"id": "ping", "op": "ping"}).encode(),
    ]
    started = time.monotonic()
    proc = subprocess.run([sys.argv[1], "serve"],
                          input=b"\n".join(lines) + b"\n",
                          capture_output=True, timeout=300, check=False)
    elapsed = time.monotonic() - started
    responses = [json.loads(r) for r in proc.stdout.decode().splitlines()]
    failures = []
    if proc.returncode != 0:
        failures.append(f"server exited {proc.returncode}: "
                        f"{proc.stderr.decode()[-400:]}")
    if len(responses) != len(lines):
        failures.append(f"expected {len(lines)} responses, "
                        f"got {len(responses)}")
    for want_id, resp in zip([None, "deep", "vm"],
                             [responses[i] for i in (0, 2, 3)
                              if i < len(responses)]):
        error = resp.get("error", {})
        if (resp.get("id") != want_id or resp.get("ok") is not False
                or error.get("code") != "limit" or "line" not in error):
            failures.append(f"expected a positioned limit error for "
                            f"{want_id!r}, got {json.dumps(resp)[:400]}")
    if len(responses) == len(lines):
        deep_expr = responses[1]
        if (deep_expr.get("id") != "deep_expr"
                or deep_expr.get("ok") is not True
                or "r = 24480" not in deep_expr.get("output", "")):
            failures.append(f"expected r = 24480 from the deep expression "
                            f"trial, got {json.dumps(deep_expr)[:400]}")
        check = responses[4]
        summary = check.get("summary", {})
        if (check.get("id") != "check" or check.get("ok") is not True
                or check.get("exit") != 1 or summary.get("errors") != 40_001):
            failures.append(f"expected 40001 errors from the check, got "
                            f"{json.dumps(check)[:400]}")
        if elapsed > 30:
            failures.append(f"the requests took {elapsed:.1f} s")
        if responses[5].get("output") != "pong":
            failures.append(f"ping not answered: {json.dumps(responses[5])}")
    for failure in failures:
        print("FAIL:", failure)
    if failures:
        sys.exit(1)
    for resp in responses:
        print(json.dumps(resp)[:200])


if __name__ == "__main__":
    main()

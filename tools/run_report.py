#!/usr/bin/env python3
"""Render a human-readable report from mfbo observability output.

Inputs (either or both):

  * a JSONL event trace written by a bench's `--trace FILE` flag
    (run_start / iteration / run_end events), and/or
  * a JSON artifact written by `--out FILE` with `--spans` enabled
    (per-run results plus a hierarchical span tree under metrics.spans).

The report is GitHub-flavored Markdown (readable as plain text in a
terminal) with, per run: a summary line, an ASCII convergence curve
(best objective vs. cumulative cost), and the fidelity-decision timeline
of the multi-fidelity loop — which fidelity was simulated each iteration
and whether the model-uncertainty test (max normalized variance vs. the
gamma threshold) forced a low-fidelity evaluation. From the artifact it
adds a flame-style span table with self/total time attribution and the
per-span self-allocation counters (alloc count / bytes) per phase, and
flags top-level spans whose time decomposes into phases but whose
allocations all sit unattributed on the top node.

`--assert-coverage PCT` turns the report into a gate: exit 1 unless, for
every top-level algorithm span, the self-times of the nodes in its
subtree sum to at least PCT percent of the algorithm's total — i.e. the
instrumentation actually attributes (not merely brackets) the runtime.

Examples:
  build/bench/table1_power_amplifier --quick --spans \\
      --trace t1.jsonl --out t1.json
  tools/run_report.py --trace t1.jsonl --artifact t1.json
  tools/run_report.py --artifact t1.json --assert-coverage 95
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_trace(path: Path) -> list[tuple[str, dict]]:
    """The trace's events, each with its `path:line` location."""
    events = []
    with path.open(encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append((f"{path}:{number}", json.loads(line)))
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{number}: bad trace line: {err}")
    return events


def group_runs(events: list[tuple[str, dict]]) -> list[dict]:
    """Split the located event stream into runs: start, iterations, end.

    Every event must sit between its own run's run_start and run_end. A
    run_start inside an open run, or an event outside any run, means
    runs were interleaved (or the trace lost its head): exit 2, naming
    the line. A final run without run_end (a crashed run) is kept.
    """
    runs = []
    current = None
    for where, event in events:
        kind = event.get("type")
        if kind == "run_start" and current is not None:
            problem = f"run_start inside the run from {current['where']}"
        elif kind != "run_start" and current is None:
            problem = f"{kind} event outside any run"
        else:
            problem = None
        if problem:
            print(f"{where}: {problem} (interleaved trace)", file=sys.stderr)
            raise SystemExit(2)
        if kind == "run_start":
            current = {"start": event, "iterations": [], "end": None,
                       "where": where}
            runs.append(current)
        elif kind == "iteration":
            current["iterations"].append(event)
        elif kind == "run_end":
            current["end"] = event
            current = None
    return runs


def fmt(value, digits: int = 4) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def ascii_chart(xs: list[float], ys: list[float], width: int,
                height: int = 10) -> list[str]:
    """Plot y(x) as an ASCII chart; x must be non-decreasing."""
    if not xs:
        return ["(no data)"]
    x_lo, x_hi = xs[0], xs[-1]
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y_hi - y) / y_span * (height - 1)))
        grid[row][col] = "*"
    # Carry the curve forward between samples so plateaus stay visible.
    last_row = None
    for col in range(width):
        rows = [r for r in range(height) if grid[r][col] == "*"]
        if rows:
            last_row = rows[-1]
        elif last_row is not None:
            grid[last_row][col] = "."
    lines = []
    for r, row in enumerate(grid):
        label = y_hi - (y_hi - y_lo) * r / (height - 1)
        lines.append(f"{label:>12.5g} |{''.join(row)}")
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(f"{'':13}{x_lo:<12.5g}{'cost':^{max(0, width - 24)}}"
                 f"{x_hi:>12.5g}")
    return lines


def convergence_section(run: dict, width: int) -> list[str]:
    iters = run["iterations"]
    pairs = [(e["cost"], e["best_objective"]) for e in iters
             if "cost" in e and "best_objective" in e
             and e["best_objective"] is not None]
    if not pairs:
        return []
    lines = ["", "Convergence (best objective vs. equivalent "
             "high-fidelity simulations):", "", "```"]
    lines += ascii_chart([p[0] for p in pairs], [p[1] for p in pairs], width)
    lines += ["```"]
    return lines


def fidelity_section(run: dict, width: int) -> list[str]:
    iters = run["iterations"]
    fidelities = [e.get("fidelity") for e in iters]
    if "low" not in fidelities:
        return []  # single-fidelity algorithm: no decision to show
    marks = []
    uncertain = []
    threshold = None
    for event in iters:
        marks.append("H" if event.get("fidelity") == "high" else
                     "v" if event.get("downgraded") else "l")
        threshold = event.get("threshold", threshold)
        over = (event.get("max_norm_var") is not None and
                threshold is not None and
                event["max_norm_var"] > threshold)
        uncertain.append("*" if over else " ")
    n_high = marks.count("H")
    n_low = len(marks) - n_high
    n_down = marks.count("v")
    lines = ["", f"Fidelity decisions (gamma threshold "
             f"{fmt(threshold)}): {n_high} high, {n_low} low "
             f"({n_down} budget downgrades)", "", "```"]
    for offset in range(0, len(marks), width):
        chunk = slice(offset, offset + width)
        lines.append("fidelity    " + "".join(marks[chunk]))
        lines.append("uncertain   " + "".join(uncertain[chunk]))
    lines += ["```", "",
              "`H` high-fidelity simulation, `l` low-fidelity, `v` "
              "low-fidelity forced by the remaining budget; `*` marks "
              "iterations where max normalized variance exceeded the "
              "threshold (model too uncertain for a high-fidelity step)."]
    return lines


def run_section(run: dict, width: int) -> list[str]:
    start = run["start"]
    end = run["end"] or {}
    title = (f"## {start.get('algo', '?')} on {start.get('problem', '?')} "
             f"(seed {start.get('seed', '?')})")
    lines = [title, ""]
    summary = [
        ("iterations", len(run["iterations"])),
        ("best objective", end.get("best_objective")),
        ("feasible found", end.get("feasible_found")),
        ("low / high sims", f"{end.get('n_low', '?')} / "
                            f"{end.get('n_high', '?')}"),
        ("equivalent high sims", end.get("equivalent_high_sims")),
    ]
    lines += [f"- {name}: {fmt(value)}" for name, value in summary
              if value is not None]
    lines += convergence_section(run, width)
    lines += fidelity_section(run, width)
    return lines


# --- span tree ----------------------------------------------------------


def fmt_alloc_bytes(value: float) -> str:
    if value <= 0:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return "-"


def walk_spans(node: dict, name: str, depth: int, rows: list) -> None:
    counters = node.get("counters", {})
    rows.append((depth, name, node.get("count", 0),
                 node.get("total_s"), node.get("self_s"),
                 counters.get("alloc_count", 0),
                 counters.get("alloc_bytes", 0)))
    for child_name, child in node.get("children", {}).items():
        walk_spans(child, child_name, depth + 1, rows)


def span_table(tree: dict) -> list[str]:
    rows = []
    for name, node in tree.get("children", {}).items():
        walk_spans(node, name, 0, rows)
    if not rows:
        return []
    timed = any(total is not None for _, _, _, total, _, _, _ in rows)
    lines = ["", "## Span profile", ""]
    if timed:
        grand_total = sum(total for depth, _, _, total, _, _, _ in rows
                          if depth == 0)
        lines.append("| span | count | total s | self s | self % "
                     "| self allocs | self alloc bytes |")
        lines.append("|---|---:|---:|---:|---:|---:|---:|")
        for depth, name, count, total, self_s, allocs, alloc_b in rows:
            share = 100.0 * self_s / grand_total if grand_total else 0.0
            indent = "&nbsp;&nbsp;" * depth
            lines.append(f"| {indent}{name} | {count} | {total:.4f} "
                         f"| {self_s:.4f} | {share:.1f} | {allocs:.0f} "
                         f"| {fmt_alloc_bytes(alloc_b)} |")
    else:
        lines.append("| span | count | self allocs | self alloc bytes |")
        lines.append("|---|---:|---:|---:|")
        for depth, name, count, _, _, allocs, alloc_b in rows:
            indent = "&nbsp;&nbsp;" * depth
            lines.append(f"| {indent}{name} | {count} | {allocs:.0f} "
                         f"| {fmt_alloc_bytes(alloc_b)} |")
    return lines


def subtree_self_sum(node: dict) -> float:
    acc = node.get("self_s", 0.0)
    for child in node.get("children", {}).values():
        acc += subtree_self_sum(child)
    return acc


def coverage_rows(tree: dict) -> list[tuple[str, float]]:
    """Per top-level span: attributed self-time share of its total."""
    rows = []
    for name, node in tree.get("children", {}).items():
        total = node.get("total_s")
        if total is None or total <= 0.0:
            continue
        rows.append((name, 100.0 * subtree_self_sum(node) / total))
    return rows


def subtree_alloc_bytes(node: dict) -> float:
    acc = float(node.get("counters", {}).get("alloc_bytes", 0))
    for child in node.get("children", {}).values():
        acc += subtree_alloc_bytes(child)
    return acc


def unattributed_alloc_spans(tree: dict) -> list[str]:
    """Top-level spans whose time decomposes into phases but whose memory
    does not: the subtree's allocations sit entirely on the top node (or
    are missing outright), so the alloc columns say nothing about *which*
    phase allocates. Usually means the phase spans are missing around the
    allocating code."""
    flagged = []
    for name, node in tree.get("children", {}).items():
        if not node.get("children"):
            continue  # no phase breakdown at all; coverage says so already
        own = float(node.get("counters", {}).get("alloc_bytes", 0))
        total = subtree_alloc_bytes(node)
        if total == 0 or total == own:
            flagged.append(name)
    return flagged


def coverage_section(tree: dict) -> list[str]:
    rows = coverage_rows(tree)
    if not rows:
        return []
    lines = ["", "### Attribution coverage", "",
             "Share of each algorithm's wall time attributed to a "
             "specific phase (self-times of the subtree / total):", ""]
    lines += [f"- {name}: {share:.2f}%" for name, share in rows]
    flagged = unattributed_alloc_spans(tree)
    if flagged:
        lines += ["", "**Unattributed allocations:** " +
                  ", ".join(f"`{name}`" for name in flagged) +
                  " — self-time coverage exists but every allocated byte "
                  "sits on the top-level span (or none were recorded), so "
                  "the memory columns cannot point at a phase. Add spans "
                  "around the allocating code paths."]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", type=Path,
                        help="JSONL trace from a bench --trace flag")
    parser.add_argument("--artifact", type=Path,
                        help="JSON artifact from a bench --out flag")
    parser.add_argument("--out", type=Path,
                        help="write the report here instead of stdout")
    parser.add_argument("--algo",
                        help="only report runs of this algorithm")
    parser.add_argument("--width", type=int, default=64,
                        help="chart/timeline width in columns (default 64)")
    parser.add_argument("--assert-coverage", type=float, metavar="PCT",
                        help="exit 1 unless every algorithm span attributes "
                             "at least PCT%% of its total to phases")
    args = parser.parse_args(argv)
    if args.trace is None and args.artifact is None:
        parser.error("need --trace and/or --artifact")

    # Missing or empty inputs are a clean no-op, not a traceback: report
    # steps run in CI before any bench may have produced output.
    for path in (args.trace, args.artifact):
        if path is None:
            continue
        if not path.exists() or path.stat().st_size == 0:
            print(f"no runs recorded: {path} is "
                  f"{'missing' if not path.exists() else 'empty'}")
            return 0

    lines = ["# mfbo run report", ""]
    sources = [str(p) for p in (args.trace, args.artifact) if p]
    lines.append("Sources: " + ", ".join(f"`{s}`" for s in sources))

    if args.trace is not None:
        runs = group_runs(load_trace(args.trace))
        if args.algo:
            runs = [r for r in runs
                    if r["start"].get("algo") == args.algo]
        if not runs:
            lines += ["", "_No matching runs in the trace._"]
        for run in runs:
            lines.append("")
            lines += run_section(run, args.width)

    tree = None
    if args.artifact is not None:
        doc = json.loads(args.artifact.read_text(encoding="utf-8"))
        tree = doc.get("metrics", {}).get("spans")
        if tree is None:
            lines += ["", "_Artifact has no span tree (run the bench "
                      "with `--spans`)._"]
        else:
            lines += span_table(tree)
            lines += coverage_section(tree)

    report = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)

    if args.assert_coverage is not None:
        if tree is None:
            print("run_report: --assert-coverage needs a --spans artifact",
                  file=sys.stderr)
            return 2
        rows = coverage_rows(tree)
        if not rows:
            print("run_report: no timed spans to assert coverage on",
                  file=sys.stderr)
            return 2
        failed = [(n, s) for n, s in rows if s < args.assert_coverage]
        for name, share in failed:
            print(f"run_report: span '{name}' attributes only "
                  f"{share:.2f}% of its total "
                  f"(< {args.assert_coverage:g}%)", file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Host-speed gate: runs perfbench on BASE_REF and on the working tree, on the
# same machine, and fails when the change is slower than the benchmark's own
# bounds allow. Run it from anywhere inside the checkout:
#
#   .github/perf-ab.sh BASE_REF
#
# BASE_REF is checked out into a temporary git worktree. For each of the
# events, figures_cold and serve_mix workloads, 5 pairs of
# `perfbench/run.sh --seed 1 --seconds 10 --trace 0` run, the side that goes
# first alternating per pair; each side builds into its own CARGO_TARGET_DIR.
# The script fails when a run fails or reports correct:false, or when the
# change's median is worse than the parent's by more than the metric's bound
# in BENCHMARK.json for events_per_s on events, sweep_s on figures_cold,
# req_p50_ms on serve_mix, or rss_peak_mb on any of the three. Every other
# end-to-end median and both sides' exact counts go to $GITHUB_STEP_SUMMARY
# (standard output when unset) without gating.
set -euo pipefail
base_ref=${1:?usage: perf-ab.sh BASE_REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"; git -C "$root" worktree prune' EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base_ref"

# run SIDE WORKLOAD: one perfbench run, its JSON line appended. perfbench
# exits non-zero whenever its line reads correct:false or failed > 0.
run() {
	local dir=$root
	[[ $1 == base ]] && dir=$work/base
	echo "perf-ab: $1 $2" >&2
	if ! (cd "$dir" && CARGO_TARGET_DIR=$work/build-$1 bash perfbench/run.sh \
		--workload "$2" --seed 1 --seconds 10 --trace 0) >"$work/out" 2>&1; then
		tail -n 20 "$work/out" >&2
		echo "perf-ab: the $1 run of $2 failed" >&2
		exit 1
	fi
	tail -n 1 "$work/out" >>"$work/$1-$2.jsonl"
}
for w in events figures_cold serve_mix; do
	for i in 1 2 3 4 5; do
		if ((i % 2)); then run base $w; run change $w; else run change $w; run base $w; fi
	done
done

python3 - "$work" "$root/BENCHMARK.json" <<'EOF'
import json, os, statistics, sys
work, spec = sys.argv[1], json.load(open(sys.argv[2]))
gated = {
    "events": ("events_per_s", "rss_peak_mb"),
    "figures_cold": ("sweep_s", "rss_peak_mb"),
    "serve_mix": ("req_p50_ms", "rss_peak_mb"),
}
sides = ("base", "change")
out = open(os.environ.get("GITHUB_STEP_SUMMARY") or "/dev/stdout", "a")
fails = []
out.write("| workload | metric | parent | change | worse by | bound |\n|---|---|---|---|---|---|\n")
for w, gates in gated.items():
    runs = {s: [json.loads(l) for l in open(f"{work}/{s}-{w}.jsonl")] for s in sides}
    for m in spec["end_to_end"]:
        base, new = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs[s]) for s in sides)
        worse = ((new - base) if m["better"] == "lower" else (base - new)) / base if base else 0.0
        mark = ""
        if m["name"] in gates:
            mark = " **gated**"
            if worse > m["bound"]:
                fails.append(f"{w}: {m['name']} median {new:.6g} vs parent {base:.6g}, worse by {worse:.1%} > bound {m['bound']:.0%}")
        out.write(f"| {w} | {m['name']}{mark} | {base:.6g} | {new:.6g} | {worse:+.1%} | {m['bound']:.0%} |\n")

out.write("\n| workload | exact count | parent | change |\n|---|---|---|---|\n")
ledgers = {s: json.load(open(f"{work}/build-{s}/perfbench/counts.json")) for s in sides}
changed = []
for w in gated:
    counts = {s: next(v for k, v in ledgers[s].items() if k.startswith(f"{w}/")) for s in sides}
    for name in sorted(set(counts["base"]) | set(counts["change"])):
        a, b = counts["base"].get(name), counts["change"].get(name)
        out.write(f"| {w} | {name} | {a} | {b} |\n")
        if a != b:
            changed.append(f"schedule change: {w} {name} {a} -> {b}\n")
out.write("\n" + "".join(changed))
for f in fails:
    print("perf-ab:", f, file=sys.stderr)
sys.exit(1 if fails else 0)
EOF

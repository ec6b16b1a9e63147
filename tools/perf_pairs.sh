#!/usr/bin/env bash
# Alternating A/B runs of the end-to-end benchmark (perf/) for two source
# trees whose perf/main.exe is already built (dune build ./perf/main.exe).
#
#   tools/perf_pairs.sh PARENT CHANGE WORKLOAD PAIRS [perf args...]
#
# e.g.  tools/perf_pairs.sh ../parent . campaign 10 --seed 2 --seconds 55
#
# Pair i runs PARENT first when i is odd and CHANGE first when i is even,
# so slow drift in the host's load falls on both sides alike.  The extra
# arguments go to every run.  Each run happens in its own scratch
# directory (perf writes .perf_out/ into its working directory).
#
# At the end it prints every run's digest and metrics, then, for every
# metric the runs report, each side's median and quartiles, the number
# of pairs the change won (ties count for neither side) and a verdict,
# using the metric's direction and bound from CHANGE/BENCHMARK.json
# (read, never written):
#
#   gain              at least ten pairs ran, the change won at least
#                     9/10 of them and its median beats the parent's by
#                     more than the parent's interquartile range;
#   unresolved        otherwise, when the parent's own interquartile
#                     range, as a fraction of its median, is wider than
#                     the bound, unless every change run beats every
#                     parent run;
#   within bound      otherwise, when the change's median is worse than
#                     the parent's by at most the bound (a fraction of
#                     the parent's median);
#   worse than bound  otherwise.
#
# A metric without a bound (the per-layer ones) reads "gain" or "-".
# It exits 1 if any run fails (non-zero exit or a CHECK FAILED line) or
# if the two sides print different summary_digest lines: a change that
# keeps behaviour must print its parent's digest.  Verdicts do not
# change the exit status.  Traced runs (--trace 1) print no digest.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT CHANGE WORKLOAD PAIRS [perf args...]" >&2
  exit 2
}
[ $# -ge 4 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
extra=("$@")
case $pairs in '' | *[!0-9]*) usage ;; esac
for tree in "$parent" "$change"; do
  if [ ! -x "$tree/_build/default/perf/main.exe" ]; then
    echo "$tree: perf/main.exe is not built (dune build ./perf/main.exe)" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

run() {
  local side=$1 i=$2 tree dir
  if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
  dir=$work/$side.$i
  mkdir -p "$dir"
  echo "pair $i: $side" >&2
  if ! (cd "$dir" && "$tree/_build/default/perf/main.exe" \
    --workload "$workload" "${extra[@]}" >out.txt 2>err.txt); then
    echo "pair $i: $side run failed" >&2
    status=1
  fi
  if grep -q "CHECK FAILED" "$dir/err.txt"; then
    grep "CHECK FAILED" "$dir/err.txt" | sed "s/^/pair $i $side: /" >&2
    status=1
  fi
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
done

python3 - "$work" "$pairs" "$change/BENCHMARK.json" <<'PY' || status=1
import json, os, sys

work, pairs, bench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better, bound = {}, {}
if os.path.exists(bench):
    b = json.load(open(bench))
    for m in b.get("end_to_end", []) + b.get("per_layer", []):
        better[m["name"]] = m["better"]
        if "bound" in m:
            bound[m["name"]] = m["bound"]

def load(side, i):
    digest, metrics = None, {}
    path = os.path.join(work, "%s.%d" % (side, i), "out.txt")
    for line in open(path):
        if line.startswith("summary_digest "):
            digest = line.split()[1]
        elif line.startswith("{"):
            metrics = {k: v["value"] for k, v in json.loads(line)["metrics"].items()}
    return digest, metrics

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

names = [n for n in runs["change"][0][1] if all(n in m for _, m in runs["parent"] + runs["change"])]
for i in range(pairs):
    for s in ("parent", "change"):
        d, m = runs[s][i]
        print("pair %d %-6s %s %s" % (i + 1, s, d, " ".join("%s=%.6g" % (n, m[n]) for n in names)))
def verdict(d, bnd, p, c, pq, cq, won):
    # [gain]: how far the change's median beats the parent's
    gain = cq[1] - pq[1] if d == "higher" else pq[1] - cq[1]
    if len(p) >= 10 and 10 * won >= 9 * len(p) and gain > pq[2] - pq[0]:
        return "gain"
    if bnd is None:
        return "-"
    scale = abs(pq[1])
    spread = (pq[2] - pq[0]) / scale if scale else (0.0 if pq[2] == pq[0] else float("inf"))
    if d == "higher":
        all_better = min(c) > max(p)
    else:
        all_better = max(c) < min(p)
    if spread > bnd and not all_better:
        return "unresolved"
    return "within bound" if -gain <= bnd * scale else "worse than bound"

print("%-40s %-6s %36s %36s %6s  %s" % ("metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"))
for n in names:
    p = [m[n] for _, m in runs["parent"]]
    c = [m[n] for _, m in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    d = better.get(n)
    if d is None:
        wins, v = "-", "-"
    else:
        won = sum(1 for a, b in zip(p, c) if (b > a if d == "higher" else b < a))
        wins = "%d/%d" % (won, pairs)
        v = verdict(d, bound.get(n), p, c, pq, cq, won)
    fmt = lambda q: "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
    print("%-40s %-6s %36s %36s %6s  %s" % (n, d or "?", fmt(pq), fmt(cq), wins, v))

# traced runs (--trace 1) print no digest; then both sides have none
digests = {s: sorted({str(d) for d, _ in runs[s]}) for s in runs}
print("summary_digest parent %s change %s" % (",".join(digests["parent"]), ",".join(digests["change"])))
if digests["parent"] != digests["change"]:
    print("summary_digest differs between the two sides", file=sys.stderr)
    sys.exit(1)
PY
exit $status

#!/usr/bin/env bash
# Run every workload N times at one seed and collect the result rows.
#
#   bench/cluster/run_all.sh SEED N OUT.json
#
# One process per run; the workload order reverses every round so drift on
# the machine spreads evenly over the workloads. Each run lasts BENCHMARK.json's
# run_seconds. Also checks the paper's headline across runs of the same
# round: upisa_icp sends at least 3x the UDP datagrams per request of
# upisa_summary. Compare two outputs with compare.py.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 SEED N OUT.json" >&2
    exit 2
fi
seed=$1 rounds=$2 out=$3
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
rows="$root/.bench_build/cluster/rows-$$"
mkdir -p "$rows"
trap 'rm -rf "$rows"' EXIT

read -r seconds workloads < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))' "$root/BENCHMARK.json")
read -r -a order <<< "$workloads"

for ((round = 1; round <= rounds; round++)); do
    for w in "${order[@]}"; do
        row="$rows/$(printf '%03d' "$round")-$w.json"
        if ! python3 "$here/run.py" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace 0 --out "$row" > "$rows/run.log"; then
            cat "$rows/run.log"
            echo "run_all: $w (round $round) failed" >&2
            exit 1
        fi
        echo "round $round/$rounds $w: $(tail -n 1 "$rows/run.log" | cut -c1-100)..."
    done
    reversed=()
    for ((i = ${#order[@]} - 1; i >= 0; i--)); do reversed+=("${order[i]}"); done
    order=("${reversed[@]}")
done

python3 - "$rows" "$seed" "$out" <<'EOF'
import json, sys
from pathlib import Path
rows_dir, seed, out = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
runs = [json.loads(p.read_text()) for p in sorted(rows_dir.glob("*.json"))]
Path(out).write_text(json.dumps({"seed": seed, "runs": runs}, indent=1) + "\n")
udp = {}
for path, row in zip(sorted(rows_dir.glob("*.json")), runs):
    udp[(path.name[:3], row["workload"])] = row["end_to_end"]["udp_msgs_per_req"]["value"]
bad = 0
for (rnd, w), v in sorted(udp.items()):
    if w == "upisa_icp" and (rnd, "upisa_summary") in udp:
        ratio = v / udp[(rnd, "upisa_summary")]
        ok = ratio >= 3
        bad += not ok
        print(f"round {int(rnd)}: upisa_icp/upisa_summary udp_msgs_per_req = {ratio:.2f} ({'ok' if ok else 'FAIL: below 3'})")
print(f"wrote {len(runs)} runs to {out}")
sys.exit(1 if bad else 0)
EOF

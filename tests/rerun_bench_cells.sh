#!/bin/sh
# Every morphbench cell can be re-run from its document alone.
#
# Runs a short `morphbench --quick`, then re-runs each cell with
# morphsim from the document's workload, config, accesses_per_core and
# warmup_per_core: a config that names configs/<config>.ini loads as
# --config-file, any other as --config. Each re-run must report the
# cell's cycles, DRAM reads, DRAM writes and persists per data write.
#
#   rerun_bench_cells.sh MORPHBENCH MORPHSIM CONFIGS_DIR
#
# Exit status: 0 when every cell matches, 1 otherwise.

set -eu
bench=$1
sim=$2
configs=$3
# Both tools must see the same scale: the document's, not the
# environment's.
unset MORPH_SIM_ACCESSES MORPH_SIM_WARMUP

doc=rerun-bench.json
"$bench" --quick --accesses 1500 --warmup 500 --jobs 2 --out "$doc" \
    2>/dev/null

# The value of "KEY" in the JSON text on stdin (numbers and strings).
field() {
    sed -n "s/.*\"$1\": \"\{0,1\}\([^\",}]*\).*/\1/p"
}
# The value of morphsim stat line KEY in $out, or 0 if it is absent.
simstat() {
    printf '%s\n' "$out" | awk -v key="morphsim.$1" \
        '$1 == key { v = $2 } END { print v == "" ? 0 : v }'
}

accesses=$(field accesses_per_core < "$doc")
warmup=$(field warmup_per_core < "$doc")
cells=0
failures=0
grep '"workload":' "$doc" > rerun-cells.txt
while IFS= read -r cell; do
    workload=$(printf '%s\n' "$cell" | field workload)
    config=$(printf '%s\n' "$cell" | field config)
    if [ -f "$configs/$config.ini" ]; then
        set -- --config-file "$configs/$config.ini"
    else
        set -- --config "$config"
    fi
    out=$("$sim" "$@" --workload "$workload" --accesses "$accesses" \
        --warmup "$warmup")
    # persists_per_write as morphbench prints it (jsonNumber).
    persists=$(awk -v p="$(simstat persist.line_persists)" \
        -v w="$(simstat traffic.data.writes)" 'BEGIN {
            v = w > 0 ? p / w : 0
            if (v == int(v)) printf "%.0f\n", v
            else printf "%.17g\n", v }')
    for pair in cycles=sim.cycles dram_reads=dram.reads \
        dram_writes=dram.writes persists_per_write=; do
        key=${pair%%=*}
        want=$(printf '%s\n' "$cell" | field "$key")
        if [ "$key" = persists_per_write ]; then
            got=$persists
        else
            got=$(simstat "${pair#*=}")
        fi
        if [ "$want" != "$got" ]; then
            echo "FAIL $workload/$config: $key $want in the document," \
                "$got from morphsim $*"
            failures=$((failures + 1))
        fi
    done
    cells=$((cells + 1))
done < rerun-cells.txt

echo "$cells cells re-run, $failures mismatches"
[ "$cells" -gt 0 ] && [ "$failures" -eq 0 ]

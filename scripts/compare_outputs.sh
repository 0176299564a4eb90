#!/usr/bin/env bash
# Compare the command-line outputs of two checkouts byte for byte.
#
#   scripts/compare_outputs.sh PARENT CHANGE
#
# PARENT and CHANGE are checkouts of the repository (each with src/ and
# scenarios/). In each one, with that checkout's own code and scenarios,
# it runs:
#   - `simulate` of scenarios/benign.txt, dropout.txt and centering.txt:
#     report.csv (without the wall_ms column) and motor_log.csv;
#   - `simulate` of benign.txt with `--config scenarios/default.cfg`, which
#     runs the config reader: the same CSVs;
#   - `simulate --export` of a quantized copy of dropout.txt: the same
#     CSVs, the exported PGM frames and their timestamps.txt;
#   - `simulate` of a copy of benign.txt whose target is hidden at frame 0
#     (`dropout=0.0-0.5`), which exits 2 before any frame is tracked;
#   - `track --dump-frames` of that exported sequence from the copy's
#     frame-0 target rectangle: track_log.csv and the annotated PGM frames;
#   - `benchmark` of the four default patch sizes over 40 frames, which
#     track the start of the 600-frame path: its CSV without the fps
#     column, and no stdout, since both hold timings;
# keeping every command's stdout, stderr and exit code unless noted. It then
# compares the two result trees, without the input files, with `diff -r` and
# exits 0 when they match, 1 when they differ and 2 on a usage error. When
# they differ it lists each differing file: for a CSV, the changed columns
# with the largest absolute difference in each, and how many rows changed;
# for any other file, the first lines of its diff.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/src" ] || [ ! -d "$2/src" ]; then
    echo "usage: $0 PARENT CHANGE   (two checkouts of the repository)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# uavtrack no longer reads UAVTRACK_CONFIG, but an older checkout given as
# PARENT reads it as its config file: clear it so both run on defaults.
unset UAVTRACK_CONFIG

# uav NAME ARGS...: run the CLI of the checkout in $src, keeping its
# stdout, stderr and exit code as NAME.{stdout,stderr,exit}.
uav() {
    local name=$1
    shift
    PYTHONPATH="$src/src" python3 -m uavtrack.cli "$@" >"$name.stdout" 2>"$name.stderr"
    echo $? >"$name.exit"
}

# drop_column CSV COLUMN: remove COLUMN, a timing, from the file.
drop_column() {
    python3 -c '
import sys
path, column = sys.argv[1:]
with open(path) as f:
    rows = [line.rstrip("\n").split(",") for line in f]
if column in rows[0]:
    c = rows[0].index(column)
    rows = [r[:c] + r[c + 1:] for r in rows]
with open(path, "w") as f:
    f.writelines(",".join(r) + "\n" for r in rows)
' "$1" "$2"
}

# list_differences PARENT_TREE CHANGE_TREE: name each file that differs
# between the two result trees and say how; a CSV by column, so that a change
# in last digits reads as its columns, row count and largest difference.
list_differences() {
    python3 -c '
import difflib, os, sys

def files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}

def csv_changes(a, b):
    """(rows changed, {column: largest |difference| or None if not numeric})"""
    rows_a = [line.split(",") for line in a.decode().splitlines()]
    rows_b = [line.split(",") for line in b.decode().splitlines()]
    if (len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]
            or any(len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        return None
    rows, columns = 0, {}
    for x, y in zip(rows_a[1:], rows_b[1:]):
        rows += x != y
        for name, p, q in zip(rows_a[0], x, y):
            if p != q:
                try:
                    d = abs(float(q) - float(p))
                except ValueError:
                    d = None
                old = columns.get(name, 0.0)
                columns[name] = None if d is None or old is None else max(old, d)
    if not columns:  # the bytes differ outside the cells
        return None
    return rows, len(rows_a) - 1, columns

parent, change = sys.argv[1:]
for rel in sorted(files(parent) | files(change)):
    paths = [os.path.join(root, rel) for root in (parent, change)]
    if not all(os.path.isfile(p) for p in paths):
        side = "parent" if os.path.isfile(paths[0]) else "change"
        print(f"{rel}: only in {side}")
        continue
    a, b = (open(p, "rb").read() for p in paths)
    if a == b:
        continue
    summary = csv_changes(a, b) if rel.endswith(".csv") else None
    if summary is not None:
        rows, total, columns = summary
        cells = ", ".join(f"{name} (max |diff| {d:.3g})" if d is not None
                          else f"{name} (not numeric)" for name, d in columns.items())
        print(f"{rel}: {rows} of {total} rows changed; columns {cells}")
        continue
    print(f"{rel}: differs")
    try:
        lines = list(difflib.unified_diff(a.decode().splitlines(), b.decode().splitlines(),
                                          "parent", "change", lineterm=""))
    except UnicodeDecodeError:
        continue
    for line in lines[:12]:
        print("    " + line)
' "$1" "$2"
}

# run_matrix CHECKOUT OUT: run the matrix inside OUT by relative paths, so
# that a message naming a file reads the same for both checkouts.
run_matrix() (
    src=$1
    mkdir -p "$2" && cd "$2" || exit 2
    for name in benign dropout centering; do
        cp "$src/scenarios/$name.txt" .
        uav "simulate_$name" simulate "$name.txt" --out "$name"
    done
    cp "$src/scenarios/default.cfg" .
    uav simulate_benign_config simulate benign.txt --config default.cfg --out benign_config
    sed 's/^quantize=.*/quantize=1/' dropout.txt >dropout_quantized.txt
    uav simulate_quantized simulate dropout_quantized.txt --out quantized --export quantized/seq
    sed '/^dropout=/d' benign.txt >benign_hidden.txt
    echo "dropout=0.0-0.5" >>benign_hidden.txt
    uav simulate_hidden simulate benign_hidden.txt --out hidden --export hidden/seq
    PYTHONPATH="$src/src" python3 -c '
from uavtrack import simulator
scenario = simulator.load_scenario("dropout_quantized.txt")
print(",".join(str(v) for v in simulator.SceneRenderer(scenario).target_rect_frame0()))
' >roi.txt 2>roi.stderr
    uav track_quantized track quantized/seq --roi "$(cat roi.txt)" --out retrack --dump-frames
    for name in benign benign_config dropout centering quantized; do
        if [ -f "$name/report.csv" ]; then drop_column "$name/report.csv" wall_ms; fi
    done
    uav benchmark benchmark --frames 40 --csv bench.csv
    rm -f benchmark.stdout
    if [ -f bench.csv ]; then drop_column bench.csv fps; fi
    # The inputs are not outputs: the two checkouts' files may differ in comments.
    rm -f benign.txt dropout.txt centering.txt default.cfg dropout_quantized.txt benign_hidden.txt
)

run_matrix "$parent" "$work/parent"
run_matrix "$change" "$work/change"
if (cd "$work" && diff -r parent change >/dev/null 2>&1); then
    echo "outputs identical: $(find "$work/change" -type f | wc -l) files"
    exit 0
fi
list_differences "$work/parent" "$work/change"
echo "outputs differ" >&2
exit 1

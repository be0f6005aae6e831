#!/bin/sh
# Build perfbench_sim and simctl with the sampler (sampler.cc) linked
# in, optimized as Release plus -g -fno-omit-frame-pointer, statically:
#
#   tools/profile/build.sh OUT_DIR [CHECKOUT]
#
# CHECKOUT (default: this one) is the source tree to profile, so an
# older revision can be built with today's sampler. Produces
# OUT_DIR/perfbench/perfbench_sim and OUT_DIR/sim/examples/simctl; run
# either with PROF_OUT=FILE set, then tools/profile/report.py.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "${2:-$here/../..}" && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
c++ -O2 -c "$here/sampler.cc" -o "$out/sampler.o"
for tree in perfbench sim; do
    src=$root
    [ "$tree" = perfbench ] && src=$root/perfbench
    cmake -S "$src" -B "$out/$tree" -DCMAKE_BUILD_TYPE=Release \
        "-DCMAKE_CXX_FLAGS=-g -fno-omit-frame-pointer" \
        "-DCMAKE_EXE_LINKER_FLAGS=-static $out/sampler.o" >/dev/null
done
# The sampler object is not a tracked dependency: force the relink.
rm -f "$out/perfbench/perfbench_sim" "$out/sim/examples/simctl"
cmake --build "$out/perfbench" -j 4 --target perfbench_sim
cmake --build "$out/sim" -j 4 --target simctl

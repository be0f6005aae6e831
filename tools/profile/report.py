#!/usr/bin/env python3
"""Self and inclusive shares from sampler.cc profiles.

    python3 tools/profile/report.py BINARY PROFILE... [--match REGEX]...

Symbolizes every sampled address of BINARY with `addr2line -f -i -C`,
expanding each into its chain of inlined functions, so a sample in code
inlined into its caller counts for both. A function's self share is the
fraction of samples whose innermost frame it is; its inclusive share is
the fraction of samples in which it appears at any depth (once per
sample); the top 15 of each are printed. Several PROFILE files (for
example one per run) are pooled. Each --match REGEX adds one line: the
share of samples whose innermost frame, or any frame, matches it. A
profile that filled the sampler's buffer lost its later samples; the
report then says how many.
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import subprocess
import sys


TOP = 15


def read_samples(paths):
    """Samples as address tuples (leaf first), the CPU seconds they
    cover, and the samples dropped for a full buffer."""
    samples, cpu_s, dropped = [], 0.0, 0
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("#"):
                    fields = line.split()
                    cpu_s += float(fields[fields.index("cpu_s") + 1])
                    dropped += int(fields[fields.index("dropped") + 1])
                elif line.strip():
                    samples.append(tuple(int(a, 16) for a in line.split()))
    return samples, cpu_s, dropped


def short_name(fn):
    """Drop a trailing ` const` and parameter list from a demangled name."""
    fn = fn.removesuffix(" const")
    if fn.endswith(")"):
        depth = 0
        for i in range(len(fn) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(fn[i], 0)
            if depth == 0:
                # "X::operator()" has no parameter list to drop.
                return fn if fn[:i].endswith("operator") else fn[:i]
    return fn


def symbolize(binary, addrs):
    """Map each address to its inlined function chain, innermost first."""
    text = "\n".join(f"{a:x}" for a in addrs)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                         input=text, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    chains, cur = {}, None
    it = iter(out)
    for line in it:
        if line.startswith("0x"):
            cur = int(line, 16)
            chains[cur] = []
            continue
        name, where = short_name(line), next(it)
        if name == "operator()":
            # A lambda's unqualified name: tell them apart by file.
            name += f" [{os.path.basename(where.split(':')[0])}]"
        chains[cur].append(name)
    return chains


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--match", action="append", default=[],
                    metavar="REGEX",
                    help="also print the self and inclusive share of the "
                         "functions matching REGEX taken together")
    args = ap.parse_args(argv)

    samples, cpu_s, dropped = read_samples(args.profiles)
    if not samples:
        sys.exit("report: no samples")
    # A return address points past its call; look up the call itself.
    addrs = sorted({s[0] for s in samples} |
                   {a - 1 for s in samples for a in s[1:]})
    chains = symbolize(args.binary, addrs)

    self_n, incl_n = collections.Counter(), collections.Counter()
    match_self, match_incl = collections.Counter(), collections.Counter()
    for s in samples:
        frames = list(chains[s[0]])
        for a in s[1:]:
            frames.extend(chains[a - 1])
        self_n[frames[0]] += 1
        incl_n.update(set(frames))
        for rx in args.match:
            match_self[rx] += bool(re.search(rx, frames[0]))
            match_incl[rx] += any(re.search(rx, f) for f in frames)

    n = len(samples)
    print(f"{n} samples over {cpu_s:.2f} s of process CPU time "
          f"({n / cpu_s:.0f} per second)")
    if dropped:
        print(f"TRUNCATED: {dropped} samples dropped for a full buffer; "
              f"the shares miss the end of the run")
    for title, counter in (("self", self_n), ("inclusive", incl_n)):
        print(f"\ntop {TOP} by {title} share:")
        print(f"  {'self%':>6} {'incl%':>6}  function")
        for fn, _ in counter.most_common(TOP):
            print(f"  {100 * self_n[fn] / n:6.1f} {100 * incl_n[fn] / n:6.1f}"
                  f"  {fn}")
    if args.match:
        print("\nmatched:")
        print(f"  {'self%':>6} {'incl%':>6}  regex")
        for rx in args.match:
            print(f"  {100 * match_self[rx] / n:6.1f} "
                  f"{100 * match_incl[rx] / n:6.1f}  {rx}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

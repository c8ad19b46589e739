#!/usr/bin/env python3
"""Symbolises and summarises the sample files written by sprof.so.

    report.py DIR [--exe SUBSTR] [--within PATTERN [--min-share F]] [--under PATTERN]

Reads every DIR/sprof.<pid>.txt (one per profiled process), keeps the
processes whose executable path contains SUBSTR, and prints the top 25 of
a flat table (samples whose leaf is in a function) and of an inclusive
table (samples with the function anywhere on the recorded stack: the leaf
plus up to eight callers, each expanded through its inlining chain).

Symbolisation: a PC is mapped to its file through the process's saved
/proc/self/maps, the file offset to an ELF virtual address through the
LOAD segments `readelf -lW` prints (for a PIE the two differ), and the
address to function names with `addr2line -f -C -i`. Caller frames are
return addresses, so they are looked up at PC - 1. Frames in a stripped
library resolve to the nearest exported symbol (memcpy in libc may show
up as __nss_database_lookup), or to `[file]` when there is none.

Inlined frames carry only their short name (`pop`, `step<...>`): release
builds keep line tables, not full debug info. Their source files are
exact, so --within also matches files.

--within PATTERN prints the share of samples with a frame whose function
name or source file contains PATTERN (`SimRuntime::run`,
`sched/queue.rs`); with --min-share F the script exits 1 when that share
is below F.

--under PATTERN prints one more flat table: the leaf functions of only
the samples with a frame matching PATTERN (as --within matches), so what
a caller spends its time in shows apart from the rest of the process
(`--under 'Sender<T>::send'` for a channel's sends, whose inlined
`notify_one` wake shows as `syscall`; `--under FabricRuntime::submit`
for the submitting thread).
"""

import argparse
import bisect
import collections
import glob
import os
import subprocess
import sys


class Proc:
    def __init__(self, path):
        self.path = path
        self.pid = 0
        self.exe = "?"
        self.dropped = 0
        self.maps = []  # (start, end, offset, file), sorted by start
        self.samples = []  # tuples of PCs, leaf first
        with open(path) as f:
            for line in f:
                if line.startswith("S "):
                    self.samples.append(tuple(int(x, 16) for x in line[2:].split()))
                elif line.startswith("M "):
                    parts = line[2:].split(None, 5)
                    if len(parts) == 6 and "x" in parts[1]:
                        lo, hi = (int(x, 16) for x in parts[0].split("-"))
                        self.maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
                elif line.startswith("# exe "):
                    self.exe = line[6:].strip()
                elif line.startswith("# sprof "):
                    words = line.split()
                    self.pid = int(words[words.index("pid") + 1])
                    self.dropped = int(words[words.index("dropped") + 1])
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]

    def locate(self, pc):
        """(file, file offset) of an executable-mapped PC, or None."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0:
            return None
        lo, hi, off, path = self.maps[i]
        if pc >= hi:
            return None
        return path, pc - lo + off


_segments = {}


def load_segments(path):
    """(file offset, vaddr, file size) of each LOAD segment of an ELF file."""
    if path not in _segments:
        segs = []
        try:
            out = subprocess.run(
                ["readelf", "-lW", path], capture_output=True, text=True, check=False
            ).stdout
            for line in out.splitlines():
                words = line.split()
                if words and words[0] == "LOAD":
                    segs.append((int(words[1], 16), int(words[2], 16), int(words[4], 16)))
        except OSError:
            pass
        _segments[path] = segs
    return _segments[path]


def label(path):
    """How a frame without a function name is shown."""
    return path if path.startswith("[") else "[%s]" % os.path.basename(path)


def to_vaddr(path, offset):
    for seg_off, vaddr, size in load_segments(path):
        if seg_off <= offset < seg_off + size:
            return offset - seg_off + vaddr
    return None


def addr2line(path, addrs):
    """{vaddr: [(function, source file), innermost inline frame first]}."""
    names = {}
    if not addrs or not os.path.exists(path):
        return names
    order = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="".join("%x\n" % a for a in order),
        capture_output=True,
        text=True,
        check=False,
    ).stdout.splitlines()
    cur = None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            cur = int(line, 16)
            names[cur] = []
            i += 1
            continue
        if cur is not None and line != "??":
            src = out[i + 1].rsplit(":", 1)[0] if i + 1 < len(out) else "??"
            names[cur].append((line, src))
        i += 2  # a function line is followed by its file:line
    return names


def symbolise(procs):
    """{(pid, pc, is_leaf): [(function, file)]} for every sampled frame."""
    wanted = collections.defaultdict(set)  # file -> vaddrs
    where = {}  # (pid, pc, leaf) -> (file, vaddr) or label
    for p in procs:
        for s in p.samples:
            for k, pc in enumerate(s):
                key = (p.pid, pc, k == 0)
                if key in where:
                    continue
                loc = p.locate(pc if k == 0 else pc - 1)
                if loc is None:
                    where[key] = "[unknown]"
                    continue
                path, off = loc
                vaddr = to_vaddr(path, off)
                if vaddr is None:
                    where[key] = label(path)
                    continue
                where[key] = (path, vaddr)
                wanted[path].add(vaddr)
    resolved = {path: addr2line(path, addrs) for path, addrs in wanted.items()}
    frames = {}
    for key, loc in where.items():
        if isinstance(loc, str):
            frames[key] = [(loc, "??")]
        else:
            path, vaddr = loc
            frames[key] = resolved[path].get(vaddr) or [(label(path), path)]
    return frames


TOP = 25


def table(title, counts, total):
    print("\n%s (top %d of %d functions, %d samples)" % (title, TOP, len(counts), total))
    print("%8s %7s  %s" % ("samples", "share", "function"))
    for name, n in counts.most_common(TOP):
        print("%8d %6.1f%%  %s" % (n, 100.0 * n / total, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("--exe", default="", help="keep processes whose executable contains this")
    ap.add_argument("--within", help="report the share of samples under this function or file")
    ap.add_argument("--min-share", type=float, help="with --within: fail below this share")
    ap.add_argument("--under", help="also print the leaf table of the samples under this")
    args = ap.parse_args()

    procs = [Proc(f) for f in sorted(glob.glob(os.path.join(args.dir, "sprof.*.txt")))]
    print("%8s %9s %8s  %s" % ("pid", "samples", "dropped", "executable"))
    for p in procs:
        print("%8d %9d %8d  %s" % (p.pid, len(p.samples), p.dropped, p.exe))
    procs = [p for p in procs if args.exe in p.exe and p.samples]
    total = sum(len(p.samples) for p in procs)
    if total == 0:
        print("no samples%s" % (" from executables matching %r" % args.exe if args.exe else ""))
        return 1 if args.min_share is not None else 0

    frames = symbolise(procs)
    flat = collections.Counter()
    incl = collections.Counter()
    under = collections.Counter()
    within = 0

    def matches(pattern, stack):
        return any(pattern in n or pattern in f for n, f in stack)

    for p in procs:
        for s in p.samples:
            leaf = frames[(p.pid, s[0], True)][0][0]
            flat[leaf] += 1
            stack = set()
            for k, pc in enumerate(s):
                stack.update(frames[(p.pid, pc, k == 0)])
            incl.update({name for name, _ in stack})
            if args.within and matches(args.within, stack):
                within += 1
            if args.under and matches(args.under, stack):
                under[leaf] += 1
    table("flat: leaf function", flat, total)
    table("inclusive: function anywhere on the recorded stack", incl, total)
    if args.under:
        n = sum(under.values())
        print("\nunder %r: %d of %d samples (%.1f%%)" % (args.under, n, total, 100.0 * n / total))
        if n:
            table("flat: leaf function, samples under %r" % args.under, under, n)
    if args.within:
        share = within / total
        print("\nwithin %r: %.1f%% of %d samples" % (args.within, 100 * share, total))
        if args.min_share is not None and share < args.min_share:
            print("below the required %.1f%%" % (100 * args.min_share), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Public-surface census: every `pub` item of a library crate has a reader.

A library file is any `.rs` file under `crates/*/src/` or `src/`, except
the binaries (`src/bin/`, `crates/cli/src/main.rs`) and the `*tests.rs`
unit-test files. A file's top-level `#[cfg(test)]` items are left out, so
a unit test is not a reader. A `pub` item (fn, struct, enum, trait, type,
const, static, mod) is *read* when another file names it as a word:
another library file, a binary, `examples/`, `crates/*/{tests,benches}`,
`tests/` or `benchmark/{src,tests}`. Comments and `pub use` re-exports
are not readers.

Every unread item must be listed in `scripts/pub_readers.txt` as
`<file>:<Type::name> | <its reader>`, and every entry there must still
name an unread item. The script prints what breaks either rule and
exits 1.

    scripts/pub_census.py            # check against the allowlist
    scripts/pub_census.py --list     # print every unread item
"""
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "pub_readers.txt")

ITEM_FN = re.compile(r"^(\s*)pub\s+(?:(?:const|unsafe|async)\s+)*fn\s+(\w+)")
ITEM = re.compile(r"^(\s*)pub\s+(struct|enum|trait|type|const|static|mod|union)\s+(?:mut\s+)?(\w+)")
IMPL = re.compile(r"^impl\b(?:<[^{]*?>)?\s+(?:[\w:<>, ']+?\s+for\s+)?(?:[\w]+::)*(\w+)")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A method is read only through a path or a receiver: `.name` or `::name`.
MEMBER = re.compile(r"(?:\.|::)\s*([A-Za-z_][A-Za-z0-9_]*)")


def rel(path):
    return os.path.relpath(path, ROOT)


def cut(text):
    """The file's lines outside its top-level `#[cfg(test)]` items."""
    out = []
    skip = None
    for line in text.splitlines():
        if skip == "item":
            # The item the attribute covers: one line (`mod tests;`) or a
            # block closed by a `}` in the first column.
            skip = None if line.rstrip().endswith(";") else "block"
            continue
        if skip == "block":
            skip = None if line.rstrip() == "}" else "block"
            continue
        if line.startswith("#[cfg(test)]"):
            skip = "item"
            continue
        out.append(line)
    return out


def strip_comment(line):
    # Good enough for this codebase: `//` inside a string literal is rare
    # and only hides a reader, which the allowlist then names.
    i = line.find("//")
    return line if i < 0 else line[:i]


def library_files():
    files = glob.glob(os.path.join(ROOT, "crates/*/src/**/*.rs"), recursive=True)
    files += glob.glob(os.path.join(ROOT, "src/**/*.rs"), recursive=True)
    keep = []
    for f in sorted(files):
        r = rel(f)
        if "/src/bin/" in r or r == "crates/cli/src/main.rs" or r.endswith("tests.rs"):
            continue
        keep.append(f)
    return keep


def reader_files():
    pats = [
        "crates/*/src/**/*.rs",
        "src/**/*.rs",
        "examples/**/*.rs",
        "crates/*/tests/**/*.rs",
        "crates/*/benches/**/*.rs",
        "tests/**/*.rs",
        "benchmark/src/**/*.rs",
        "benchmark/tests/**/*.rs",
    ]
    files = set()
    for p in pats:
        files.update(glob.glob(os.path.join(ROOT, p), recursive=True))
    return sorted(f for f in files if not rel(f).endswith("tests.rs") or "/tests/" in rel(f))


def words_of(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines() if "/tests/" in rel(path) or "/benches/" in rel(path) else cut(text)
    words, members = set(), set()
    for line in lines:
        line = strip_comment(line)
        if re.match(r"\s*pub(\([\w:]+\))?\s+use\b", line):
            continue
        words.update(WORD.findall(line))
        members.update(MEMBER.findall(line))
    return words, members


def items_of(path):
    """`(name, Type::name or name, is_method)` for each `pub` item."""
    with open(path, encoding="utf-8") as fh:
        lines = cut(fh.read())
    owner = None
    for line in lines:
        m = IMPL.match(line)
        if m:
            owner = m.group(1)
            continue
        m = ITEM_FN.match(line) or ITEM.match(line)
        if not m:
            continue
        indent, name = m.group(1), m.group(m.lastindex)
        if indent == "":
            owner = None
            yield name, name, False
        else:
            yield name, f"{owner}::{name}" if owner else name, owner is not None


def unread():
    words = {f: words_of(f) for f in reader_files()}
    found = []
    for f in library_files():
        for name, qual, member in items_of(f):
            if not any(name in w[member] for g, w in words.items() if g != f):
                found.append(f"{rel(f)}:{qual}")
    return sorted(set(found))


def allowlist():
    entries = {}
    bad = []
    with open(ALLOWLIST, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, reader = line.partition("|")
            if not reader.strip():
                bad.append(f"pub_readers.txt:{n}: `{key.strip()}` names no reader")
            entries[key.strip()] = reader.strip()
    return entries, bad


def main():
    found = unread()
    if "--list" in sys.argv:
        print("\n".join(found))
        return 0
    entries, bad = allowlist()
    missing = [k for k in found if k not in entries]
    stale = [k for k in entries if k not in found]
    for k in missing:
        print(f"unread pub item, not on the allowlist: {k}")
    for k in stale:
        print(f"stale allowlist entry (gone, or read now): {k}")
    for b in bad:
        print(b)
    if missing or stale or bad:
        print(
            "every pub item needs a reader outside its file: delete it, make it "
            "private, or list it in scripts/pub_readers.txt with its reader",
            file=sys.stderr,
        )
        return 1
    print(f"{len(found)} unread pub items, each allowlisted with its reader")
    return 0


if __name__ == "__main__":
    sys.exit(main())

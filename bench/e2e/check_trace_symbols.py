#!/usr/bin/env python3
"""Check the traced build's wrap list before nvmbench_traced links.

Every symbol in trace_symbols.txt must be
  * defined by one of the library archives (a renamed entry point fails),
  * referenced as an undefined symbol from another object -- a library
    member or the harness -- because --wrap only redirects undefined
    references, so an entry point only ever called from its own
    translation unit would silently drop out of the trace, and
  * wrapped: trace.cpp must define __wrap_<symbol>.
Every __wrap_ function trace.cpp defines must be listed.

Usage: check_trace_symbols.py --symbols FILE --wrappers OBJ...
           --callers OBJ... --libs LIB... [--nm NM]
"""
import argparse
import subprocess
import sys

LAYERS = {
    "nvmalloc", "fuselite", "store.client", "store.manager",
    "store.benefactor", "store.erasure", "store.qos", "store.wal", "net",
    "sim.ssd", "sim.resource",
}


def nm_symbols(nm, paths, undefined):
    """Global symbols that `paths` define (or, with undefined, reference)."""
    flag = "--undefined-only" if undefined else "--defined-only"
    out = subprocess.run([nm, flag, "--format=posix", *paths],
                         capture_output=True, text=True, check=True).stdout
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        # "name type [value size]"; archive member headers end with ':'.
        if len(parts) >= 2 and not parts[0].endswith(":"):
            if undefined or parts[1] in "TW":
                syms.add(parts[0])
    return syms


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--symbols", required=True)
    ap.add_argument("--wrappers", nargs="+", required=True)
    ap.add_argument("--callers", nargs="+", required=True)
    ap.add_argument("--libs", nargs="+", required=True)
    ap.add_argument("--nm", default="nm")
    args = ap.parse_args()

    listed = {}
    errors = []
    with open(args.symbols) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2 or parts[0] not in LAYERS:
                errors.append(f"line {lineno}: expected '<layer> <symbol>'")
                continue
            if parts[1] in listed:
                errors.append(f"line {lineno}: {parts[1]} listed twice")
            listed[parts[1]] = parts[0]

    defined = nm_symbols(args.nm, args.libs, undefined=False)
    referenced = nm_symbols(args.nm, args.libs + args.callers,
                            undefined=True)
    wrappers = {s[len("__wrap_"):]
                for s in nm_symbols(args.nm, args.wrappers, undefined=False)
                if s.startswith("__wrap_")}

    for sym in listed:
        if sym not in defined:
            errors.append(f"{sym}: not defined by the library (renamed?)")
        elif sym not in referenced:
            errors.append(f"{sym}: never referenced across translation "
                          "units, so --wrap would catch no call")
        if sym not in wrappers:
            errors.append(f"{sym}: no __wrap_ function in trace.cpp")
    for sym in sorted(wrappers - listed.keys()):
        errors.append(f"__wrap_{sym}: defined in trace.cpp but not listed")

    for e in errors:
        print(f"check_trace_symbols: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

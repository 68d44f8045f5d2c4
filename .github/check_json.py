"""Load every JSON artifact named on the command line with Python's json
module, an independent reader of what tilecc writes.

A `.ndjson` file is checked line by line. `NaN` and `Infinity`, which
Python accepts by default but JSON does not, are rejected, as are raw
control characters in strings. Exits nonzero on the first file that does
not parse, and when no file was named (a glob that matched nothing).

    python3 .github/check_json.py sor_trace.json tcp_stats.ndjson ...
"""
import json
import sys


def reject(token):
    raise ValueError(f"{token} is not JSON")


def main(paths):
    if not paths:
        sys.exit("no JSON artifact to check")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            if path.endswith(".ndjson"):
                lines = f.read().splitlines()
                if not lines:
                    sys.exit(f"{path}: no records")
                for n, line in enumerate(lines, 1):
                    try:
                        json.loads(line, parse_constant=reject)
                    except ValueError as e:
                        sys.exit(f"{path}:{n}: {e}")
                print(f"{path}: {len(lines)} records parse")
            else:
                try:
                    json.load(f, parse_constant=reject)
                except ValueError as e:
                    sys.exit(f"{path}: {e}")
                print(f"{path}: parses")


if __name__ == "__main__":
    main(sys.argv[1:])

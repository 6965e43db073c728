"""Count the source lines of the package.

Prints, for each src/surfcluster/*.py, the lines that are neither blank nor
a comment (docstring lines count), then the total:

    python tools/sloc.py
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "surfcluster"


def sloc(path: pathlib.Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = sloc(path)
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main()

"""Entry point of ``python -m bench``: find the program source, then run."""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import cli

    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

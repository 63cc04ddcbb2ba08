"""Make ``import rsir1d`` load the library from this checkout's src/."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Put src/ first on sys.path; exit with an error when rsir1d is
    missing there, rather than measuring some other installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import rsir1d
    except ImportError as err:
        raise SystemExit(f"cannot import rsir1d from {SRC}: {err}") from err
    if not Path(rsir1d.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rsir1d was imported from {rsir1d.__file__}, "
                         f"not from {SRC}")

"""Locate the checkout this benchmark sits in and import wordfibers from it."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"


class CheckoutError(RuntimeError):
    pass


def require_sources() -> None:
    if not (SRC / "wordfibers" / "cli.py").is_file():
        raise CheckoutError(f"no wordfibers sources under {SRC}")


def import_cli():
    """wordfibers.cli from this checkout's src/, never from an installed copy."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("wordfibers.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"wordfibers was imported from {cli.__file__}, not {SRC}")
    return cli

"""Entry point for ``python -m duelopt``."""

import sys

from .cli import main

sys.exit(main())

"""``python -m graphck``: the command-line interface of ``graphck.cli``."""

import sys

from .cli import main

sys.exit(main())

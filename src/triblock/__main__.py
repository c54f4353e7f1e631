"""``python -m triblock``: the triblock command (see `triblock.cli`)."""

import sys

from .cli import main

sys.exit(main())

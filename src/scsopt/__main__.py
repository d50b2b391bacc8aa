"""``python -m scsopt solve|compare ...``: the ``scsopt`` command line without its console script."""

import sys

from .cli import main

sys.exit(main())

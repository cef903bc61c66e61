"""``python -m dedmin``: the same command line as the ``dedmin`` script."""

import sys

from .cli import main

sys.exit(main())

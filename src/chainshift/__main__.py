"""``python -m chainshift``: same as the ``chainshift`` console script."""

import sys

from .cli import main

sys.exit(main())

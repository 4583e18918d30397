"""``python -m repro`` — the ``repro`` command."""

import sys

from .cli import main

sys.exit(main())

"""``python -m gmms``: the same command-line front end as ``gmms``."""

import sys

from .cli import main

sys.exit(main())

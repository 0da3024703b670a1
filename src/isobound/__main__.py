"""`python -m isobound`: the same command line as the `isobound` script."""

import sys

from .cli import main

sys.exit(main())

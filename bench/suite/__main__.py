import sys

from bench.suite.cli import main

sys.exit(main())

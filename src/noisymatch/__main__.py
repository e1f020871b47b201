import gc
import sys

from .cli import main

# Move the objects of the imported modules out of the collector's reach: the
# collections at interpreter shutdown, and any during the run, then skip
# them, and forked pool workers do not walk (and so copy) the parent's
# pages.  Shutdown of a process that imported noisymatch.cli took a median
# 34.6 ms without the freeze and 8.5 ms with it; after a many-tiny run
# (3000 replications, 2 workers) 37.1 and 12.4 ms (Python 3.11, 2-vCPU
# machine).  In-process callers of cli.main keep normal collection.
gc.freeze()
sys.exit(main())

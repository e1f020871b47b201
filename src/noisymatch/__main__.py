import gc
import sys

from .cli import main

# Move the objects of the modules imported so far out of the collector's
# reach: the collections at interpreter shutdown, and any during the run,
# then skip them, and forked pool workers do not walk (and so copy) their
# pages.  The pool's own modules (multiprocessing, concurrent.futures) load
# after this, when a run starts its pool, so their objects stay in reach.
# Shutdown of a process that imported noisymatch.cli took a median 14.6 ms
# without the freeze and 3.2 ms with it; after a many-tiny run (3000
# replications, 2 workers) 20.9 and 8.2 ms (Python 3.11, 2-vCPU machine,
# 20 runs each).  In-process callers of cli.main keep normal collection.
gc.freeze()
sys.exit(main())

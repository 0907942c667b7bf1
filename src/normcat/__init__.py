"""normcat: seminorms and norms on finite categories, and the distances they induce."""

__version__ = "0.1.0"

# the property suites of `normcat check`, in run order; kept here so the
# command line can offer them without loading normcat.suites
SUITE_NAMES = ("core", "metric", "topo", "measure", "wasserstein")

"""Optimal sparse sampling and reconstruction of measured BRDFs.

Pipeline: read or generate a corpus of BRDFs, map them to the log-relative
domain, train a PCA dictionary, greedily select the most informative sample
directions with SOMP over the dictionary inverse, then recover full BRDFs
from measurements at those directions by ridge regression.
"""

__version__ = "0.1.0"

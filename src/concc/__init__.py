"""concc: exact tools for building groups with prescribed conjugacy behaviour.

Submodules:

- ``words``          free-group word algebra (reduction, conjugacy, roots)
- ``presentations``  finite presentations, retraction quotients, obstructions
- ``hnn``            iterated HNN extensions with Britton reduction
- ``towers``         stagewise tower construction with replayable certificates
- ``substrings``     suffix and LCP arrays for the piece index and Dehn
- ``smallcanc``      symmetrized closures, piece metrics, Dehn reduction
- ``freeprod``       free products, relative path combinatorics, audits
- ``cli``            the ``concc`` command line front end
"""

__all__ = [
    "words",
    "presentations",
    "hnn",
    "towers",
    "substrings",
    "smallcanc",
    "freeprod",
    "cli",
]

__version__ = "0.1.0"

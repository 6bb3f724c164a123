"""Two-photon Deutsch-Jozsa protocol on a dispersively coupled atomic ensemble.

The package is organized bottom-up: ``qstate`` holds the labeled-space
linear algebra, ``polarization`` the Jones-calculus optics, ``ensemble`` the
medium dynamics (exact and declared), ``manybody`` the unreduced and
symmetric-sector oracle simulators, ``protocol`` the end-to-end algorithm,
``params`` the feasibility calculator, and ``cli`` the command-line front
end.
"""

__version__ = "0.1.0"

"""stftlab: a numerical laboratory for phase retrieval from spectrogram data.

Import the submodules (`from stftlab import transforms`, `from
stftlab.norms import parse_norm`); the package itself binds no name. It
imports nothing either, so importing it stays cheap and the command line
tool can cap BLAS thread pools before any numerical module pulls them in.
"""

"""`python -m m2mtnet ...` runs the m2mtnet command line."""
from .cli import entry

entry()

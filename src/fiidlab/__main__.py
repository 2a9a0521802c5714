"""`python -m fiidlab ...` runs the command-line front end."""

from .cli import main_entry

main_entry()

"""``python -m confluent_hasse``: the command-line front end."""

from .cli import main

main()

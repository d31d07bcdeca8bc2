"""``python -m semplan``: the command-line interface."""
from semplan.cli import entry

if __name__ == "__main__":
    entry()

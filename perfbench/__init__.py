"""End-to-end benchmark of campaign cells and log serving; see run.py."""

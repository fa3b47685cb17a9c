"""End-to-end benchmark of the COMET reproduction (see README.md)."""

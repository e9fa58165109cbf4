"""Collection, parsing, and analysis of app-generated sleep-log tweets."""

__version__ = "0.1.0"

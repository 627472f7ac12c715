"""Step-level preference data pipeline and toy preference-learning lab."""

__version__ = "0.1.0"
